#include "tlb/shadow_bank.hh"

#include "common/logging.hh"

namespace vcoma
{

const std::vector<unsigned> &
shadowSizes()
{
    static const std::vector<unsigned> sizes{8, 16, 32, 64, 128, 256, 512};
    return sizes;
}

ShadowBank::ShadowBank(std::uint64_t seed,
                       const std::vector<unsigned> &sizes,
                       unsigned indexShift)
{
    std::uint64_t n = 0;
    members_.reserve(sizes.size() * 2);
    for (unsigned entries : sizes) {
        // The same-page memo in access() relies on every member
        // holding the last page, which a 0-entry member never does.
        if (entries == 0)
            fatal("shadow bank member sizes must be at least 1 entry");
        members_.emplace_back(entries, /*assoc=*/0, seed + 31 * ++n,
                              indexShift);
        members_.emplace_back(entries, /*assoc=*/1, seed + 31 * ++n,
                              indexShift);
    }
}

void
ShadowBank::access(PageNum vpn, StreamClass cls)
{
    if (vpn == last_) {
        for (auto &tlb : members_)
            tlb.countHit(cls);
        return;
    }
    last_ = vpn;
    for (auto &tlb : members_)
        tlb.access(vpn, cls);
}

const Tlb *
ShadowBank::find(unsigned entries, unsigned assoc) const
{
    for (const auto &tlb : members_) {
        if (tlb.entries() == entries && tlb.assoc() == assoc)
            return &tlb;
    }
    return nullptr;
}

ShadowTotals
sumShadow(const std::vector<ShadowBank> &banks, unsigned entries,
          unsigned assoc)
{
    ShadowTotals totals;
    for (const auto &bank : banks) {
        const Tlb *tlb = bank.find(entries, assoc);
        if (!tlb)
            panic("shadow bank has no member with ", entries,
                  " entries, assoc ", assoc);
        totals.demandAccesses += tlb->demandAccesses.value();
        totals.demandMisses += tlb->demandMisses.value();
        totals.writebackAccesses += tlb->writebackAccesses.value();
        totals.writebackMisses += tlb->writebackMisses.value();
    }
    return totals;
}

} // namespace vcoma
