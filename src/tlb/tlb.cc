#include "tlb/tlb.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace vcoma
{

Tlb::Tlb(unsigned entries, unsigned assoc, std::uint64_t seed,
         unsigned indexShift)
    : entries_(entries), assoc_(assoc), indexShift_(indexShift),
      rng_(seed)
{
    if (entries_ == 0) {
        // A 0-entry TLB models software-managed translation: every
        // access traps (the paper's reading of Jacob & Mudge [15] as
        // "an L2-TLB scheme which has 0 entries", Section 3.3).
        return;
    }
    if (assoc_ == 0) {
        const unsigned indexBits = ceilLog2(entries_) + 1;
        faHashShift_ = 64 - indexBits;
        faIndex_.resize(std::size_t{1} << indexBits);
        faSlots_.resize(entries_);
        faFree_.reserve(entries_);
        resetFullyAssociative();
    } else {
        if (entries_ % assoc_ != 0)
            fatal("TLB entries (", entries_, ") not divisible by assoc (",
                  assoc_, ")");
        numSets_ = entries_ / assoc_;
        if (!isPowerOf2(numSets_))
            fatal("TLB set count must be a power of two");
        saTags_.assign(entries_, noVpn);
    }
}

void
Tlb::resetFullyAssociative()
{
    std::fill(faIndex_.begin(), faIndex_.end(), IndexEntry{noVpn, 0});
    std::fill(faSlots_.begin(), faSlots_.end(), noVpn);
    faFree_.clear();
    for (unsigned i = 0; i < entries_; ++i)
        faFree_.push_back(entries_ - 1 - i);
}

std::size_t
Tlb::indexHome(PageNum vpn) const
{
    // Fibonacci hashing: the top bits of vpn * 2^64/phi.
    return static_cast<std::size_t>((vpn * 0x9e3779b97f4a7c15ULL) >>
                                    faHashShift_);
}

std::size_t
Tlb::indexFind(PageNum vpn) const
{
    const std::size_t mask = faIndex_.size() - 1;
    std::size_t i = indexHome(vpn);
    while (faIndex_[i].vpn != vpn && faIndex_[i].vpn != noVpn)
        i = (i + 1) & mask;
    return i;
}

void
Tlb::indexErase(std::size_t hole)
{
    // Backward-shift deletion: pull later entries of the probe run
    // into the hole when it lies between their home and their
    // position, so no lookup ever has to skip a tombstone.
    const std::size_t mask = faIndex_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; faIndex_[j].vpn != noVpn;
         j = (j + 1) & mask) {
        const std::size_t home = indexHome(faIndex_[j].vpn);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            faIndex_[hole] = faIndex_[j];
            hole = j;
        }
    }
    faIndex_[hole].vpn = noVpn;
}

std::string
Tlb::organisation() const
{
    if (assoc_ == 0)
        return "FA";
    if (assoc_ == 1)
        return "DM";
    return std::to_string(assoc_) + "way";
}

bool
Tlb::lookupAndFill(PageNum vpn, PageNum *evictedOut)
{
    if (evictedOut)
        *evictedOut = noVpn;
    if (entries_ == 0)
        return false;
    mru_ = vpn;
    if (assoc_ == 0) {
        if (faIndex_[indexFind(vpn)].vpn == vpn)
            return true;
        // Fill: an empty slot if one exists, else random replacement
        // (paper Section 5.1).
        unsigned slot;
        if (!faFree_.empty()) {
            slot = faFree_.back();
            faFree_.pop_back();
        } else {
            slot = static_cast<unsigned>(rng_.below(entries_));
            if (evictedOut)
                *evictedOut = faSlots_[slot];
            indexErase(indexFind(faSlots_[slot]));
        }
        faSlots_[slot] = vpn;
        // Probe again: the erase above may have emptied a position
        // earlier in vpn's run.
        faIndex_[indexFind(vpn)] = {vpn, slot};
        return false;
    }

    const unsigned set = static_cast<unsigned>(
        (vpn >> indexShift_) & (numSets_ - 1));
    PageNum *base = &saTags_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == vpn)
            return true;
    }
    // Fill an empty way if available, else a random victim.
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == noVpn) {
            base[w] = vpn;
            return false;
        }
    }
    const unsigned victim = static_cast<unsigned>(rng_.below(assoc_));
    if (evictedOut)
        *evictedOut = base[victim];
    base[victim] = vpn;
    return false;
}

bool
Tlb::access(PageNum vpn, StreamClass cls, PageNum *evictedOut)
{
    bool hit;
    if (vpn == mru_) {
        if (evictedOut)
            *evictedOut = noVpn;
        hit = true;
    } else {
        hit = lookupAndFill(vpn, evictedOut);
    }
    if (cls == StreamClass::Demand) {
        ++demandAccesses;
        if (!hit)
            ++demandMisses;
    } else {
        ++writebackAccesses;
        if (!hit)
            ++writebackMisses;
    }
    return hit;
}

bool
Tlb::contains(PageNum vpn) const
{
    if (entries_ == 0)
        return false;
    if (assoc_ == 0)
        return faIndex_[indexFind(vpn)].vpn == vpn;
    const unsigned set = static_cast<unsigned>(
        (vpn >> indexShift_) & (numSets_ - 1));
    const PageNum *base = &saTags_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == vpn)
            return true;
    }
    return false;
}

bool
Tlb::invalidate(PageNum vpn)
{
    if (entries_ == 0)
        return false;
    if (vpn == mru_)
        mru_ = noVpn;
    if (assoc_ == 0) {
        const std::size_t pos = indexFind(vpn);
        if (faIndex_[pos].vpn != vpn)
            return false;
        const unsigned slot = faIndex_[pos].slot;
        faFree_.push_back(slot);
        faSlots_[slot] = noVpn;
        indexErase(pos);
        return true;
    }
    const unsigned set = static_cast<unsigned>(
        (vpn >> indexShift_) & (numSets_ - 1));
    PageNum *base = &saTags_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == vpn) {
            base[w] = noVpn;
            return true;
        }
    }
    return false;
}

void
Tlb::forEachEntry(const std::function<void(PageNum)> &fn) const
{
    if (entries_ == 0)
        return;
    if (assoc_ == 0) {
        for (PageNum vpn : faSlots_) {
            if (vpn != noVpn)
                fn(vpn);
        }
        return;
    }
    for (PageNum vpn : saTags_) {
        if (vpn != noVpn)
            fn(vpn);
    }
}

void
Tlb::addStats(StatGroup &g, const std::string &prefix) const
{
    g.addCounter(prefix + "demandAccesses", demandAccesses);
    g.addCounter(prefix + "demandMisses", demandMisses);
    g.addCounter(prefix + "writebackAccesses", writebackAccesses);
    g.addCounter(prefix + "writebackMisses", writebackMisses);
}

void
Tlb::flush()
{
    if (entries_ == 0)
        return;
    mru_ = noVpn;
    if (assoc_ == 0) {
        resetFullyAssociative();
    } else {
        std::fill(saTags_.begin(), saTags_.end(), noVpn);
    }
}

} // namespace vcoma
