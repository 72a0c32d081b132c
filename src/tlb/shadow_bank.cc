#include "tlb/shadow_bank.hh"

#include <bit>

#include "common/bitops.hh"
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
    : indexShift_(indexShift)
{
    if (sizes.size() * 2 > maxMembers)
        fatal("a shadow bank holds at most ", maxMembers / 2,
              " sizes, got ", sizes.size());
    std::uint64_t n = 0;
    unsigned total = 0;
    members_.reserve(sizes.size() * 2);
    for (unsigned entries : sizes) {
        // The same-page memo in access() relies on every member
        // holding the last page, which a 0-entry member never does.
        if (entries == 0)
            fatal("shadow bank member sizes must be at least 1 entry");
        // Each size also has a direct-mapped member, one set per entry.
        if (!isPowerOf2(entries))
            fatal("shadow bank member sizes must be powers of two, got ",
                  entries);
        for (unsigned assoc : {0u, 1u}) {
            members_.push_back(
                Member{entries, assoc, total, 0, Rng(seed + 31 * ++n)});
            allMembers_ |= MemberMask(1u << (members_.size() - 1));
            total += entries;
        }
    }
    slots_.assign(total, Tlb::noVpn);
    // The index holds each page resident in some member once, so at
    // most `total` entries: sizing it to 2 * total keeps it half full.
    const unsigned indexBits = ceilLog2(2 * std::uint64_t{total});
    hashShift_ = 64 - indexBits;
    indexVpn_.assign(std::size_t{1} << indexBits, Tlb::noVpn);
    indexMask_.assign(indexVpn_.size(), 0);
}

std::size_t
ShadowBank::indexFind(PageNum vpn) const
{
    const std::size_t mask = indexVpn_.size() - 1;
    // Fibonacci hashing: the top bits of vpn * 2^64/phi.
    std::size_t i = static_cast<std::size_t>(
        (vpn * 0x9e3779b97f4a7c15ULL) >> hashShift_);
    while (indexVpn_[i] != vpn && indexVpn_[i] != Tlb::noVpn)
        i = (i + 1) & mask;
    return i;
}

void
ShadowBank::indexErase(std::size_t hole)
{
    // Backward-shift deletion, as in Tlb::indexErase.
    const std::size_t mask = indexVpn_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; indexVpn_[j] != Tlb::noVpn;
         j = (j + 1) & mask) {
        const std::size_t home = static_cast<std::size_t>(
            (indexVpn_[j] * 0x9e3779b97f4a7c15ULL) >> hashShift_);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            indexVpn_[hole] = indexVpn_[j];
            indexMask_[hole] = indexMask_[j];
            hole = j;
        }
    }
    indexVpn_[hole] = Tlb::noVpn;
}

PageNum
ShadowBank::fill(Member &m, PageNum vpn)
{
    // The Tlb's miss path: a DM member's one way; an FA member's free
    // slots in the order its free list hands them out (members are
    // never invalidated), then random replacement (Section 5.1).
    unsigned slot;
    if (m.assoc == 1)
        slot = static_cast<unsigned>((vpn >> indexShift_) & (m.entries - 1));
    else if (m.filled < m.entries)
        slot = m.filled++;
    else
        slot = static_cast<unsigned>(m.rng.below(m.entries));
    PageNum &tag = slots_[m.base + slot];
    const PageNum evicted = tag;
    tag = vpn;
    return evicted;
}

void
ShadowBank::access(PageNum vpn, StreamClass cls)
{
    const bool demand = cls == StreamClass::Demand;
    ++(demand ? demandAccesses_ : writebackAccesses_);
    if (vpn == last_)
        return;
    last_ = vpn;
    const std::size_t pos = indexFind(vpn);
    const unsigned resident = indexVpn_[pos] == vpn ? indexMask_[pos] : 0;
    unsigned missing = allMembers_ & ~resident;
    if (missing == 0)
        return;
    for (; missing != 0; missing &= missing - 1) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(missing));
        Member &m = members_[bit];
        ++(demand ? m.demandMisses : m.writebackMisses);
        const PageNum evicted = fill(m, vpn);
        if (evicted == Tlb::noVpn)
            continue;
        const std::size_t at = indexFind(evicted);
        indexMask_[at] &= MemberMask(~(1u << bit));
        if (indexMask_[at] == 0)
            indexErase(at);
    }
    // Probe again: the erases above may have moved vpn's entry, or
    // emptied a position earlier in its run.
    const std::size_t at = indexFind(vpn);
    indexVpn_[at] = vpn;
    indexMask_[at] = allMembers_;
}

ShadowCounts
ShadowBank::counts(unsigned entries, unsigned assoc) const
{
    for (const Member &m : members_) {
        if (m.entries == entries && m.assoc == assoc)
            return {demandAccesses_, m.demandMisses, writebackAccesses_,
                    m.writebackMisses};
    }
    fatal("shadow bank has no member with ", entries, " entries, assoc ",
          assoc);
}

} // namespace vcoma
