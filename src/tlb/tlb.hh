/**
 * @file
 * The translation-structure model shared by all five schemes: a TLB
 * when private to a node (L0..L3) and a DLB (Directory Lookaside
 * Buffer) when placed at the home node inside the coherence protocol
 * (V-COMA, Section 4.2).
 *
 * The paper uses random replacement for fully associative TLB/DLBs
 * (Section 5.1) and also evaluates direct-mapped organisations
 * (Figure 9); both are supported, as is the general set-associative
 * case with random victim selection within a set.
 *
 * The structure maps virtual page numbers; the payload (physical page
 * number vs directory-page base address) is irrelevant to miss
 * behaviour, so the model tracks presence only.
 */

#ifndef VCOMA_TLB_TLB_HH
#define VCOMA_TLB_TLB_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace vcoma
{

/**
 * TLB/DLB presence model with per-stream-class miss accounting.
 */
class Tlb
{
  public:
    /**
     * @param entries total entry count; 0 models software-managed
     *                translation (every access misses/traps)
     * @param assoc   associativity; 0 = fully associative
     * @param seed    seed for the random-replacement stream
     * @param indexShift low vpn bits to skip when selecting the set.
     *        A DLB at a V-COMA home only ever sees pages whose low p
     *        vpn bits equal the home id (Figure 6), so the set index
     *        must come from the bits above them.
     */
    Tlb(unsigned entries, unsigned assoc, std::uint64_t seed,
        unsigned indexShift = 0);

    /**
     * Look up @p vpn, fill on miss.
     * @param cls whether this is a demand access or a write-back /
     *            injection access (Section 2.2.2's poor-locality
     *            stream).
     * @param evictedOut when non-null, receives the vpn the fill
     *            displaced (or noVpn when nothing was evicted), so
     *            callers holding per-entry metadata can retire it.
     * @return true on hit.
     */
    bool access(PageNum vpn, StreamClass cls = StreamClass::Demand,
                PageNum *evictedOut = nullptr);

    /**
     * Count a hit on @p cls without a lookup. For callers that know
     * the page is resident because it was the last one accessed and
     * nothing has been invalidated or flushed since (ShadowBank's
     * same-page memo).
     */
    void
    countHit(StreamClass cls)
    {
        if (cls == StreamClass::Demand)
            ++demandAccesses;
        else
            ++writebackAccesses;
    }

    /** Presence probe without statistics or replacement effects. */
    bool contains(PageNum vpn) const;

    /**
     * Invalidate the entry mapping @p vpn (TLB shoot-down, page
     * demap).
     * @return true if an entry was dropped.
     */
    bool invalidate(PageNum vpn);

    /** Drop all entries (context switch / full shoot-down). */
    void flush();

    /**
     * Visit the vpn of every cached entry (invariant checking).
     * Order is unspecified; the structure is not modified.
     */
    void forEachEntry(const std::function<void(PageNum)> &fn) const;

    unsigned entries() const { return entries_; }
    unsigned assoc() const { return assoc_; }
    bool fullyAssociative() const { return assoc_ == 0; }

    /** "FA", "DM" or "<k>way" as used in figure labels. */
    std::string organisation() const;

    /** @{ @name Statistics */
    Counter demandAccesses;
    Counter demandMisses;
    Counter writebackAccesses;
    Counter writebackMisses;
    /** @} */

    std::uint64_t
    accesses() const
    {
        return demandAccesses.value() + writebackAccesses.value();
    }

    std::uint64_t
    misses() const
    {
        return demandMisses.value() + writebackMisses.value();
    }

    /** Register the counters on @p g as <prefix>demandAccesses etc. */
    void addStats(StatGroup &g, const std::string &prefix) const;

    /**
     * Sentinel "no page" value (also the empty-slot tag); never a
     * valid argument to access().
     */
    static constexpr PageNum noVpn = ~PageNum{0};

  private:
    unsigned entries_;
    unsigned assoc_;
    unsigned indexShift_;
    Rng rng_;

    /**
     * Same-page memo: the page of the last lookup. A fill always
     * leaves its page resident and only invalidate() and flush() drop
     * entries, so until one of those resets it, accessing mru_ again
     * is a hit that changes no state. Stays noVpn for a 0-entry TLB.
     */
    PageNum mru_ = noVpn;

    // Fully associative implementation: faSlots_ holds the resident
    // pages (victims are drawn by rng_ over its slots, so results do
    // not depend on how the index is laid out); faIndex_ maps
    // vpn -> slot as an open-addressed table of power-of-two size at
    // most half full, with linear probing and backward-shift erase.
    struct IndexEntry
    {
        PageNum vpn;
        unsigned slot;
    };
    std::vector<IndexEntry> faIndex_;
    unsigned faHashShift_ = 0;
    std::vector<PageNum> faSlots_;
    std::vector<unsigned> faFree_;

    // Set-associative implementation: sets_ x assoc_ tag array.
    std::vector<PageNum> saTags_;
    unsigned numSets_ = 0;

    /** First index position probed for @p vpn. */
    std::size_t indexHome(PageNum vpn) const;
    /** Index position holding @p vpn, or the empty one ending its probe. */
    std::size_t indexFind(PageNum vpn) const;
    void indexErase(std::size_t pos);
    void resetFullyAssociative();
    bool lookupAndFill(PageNum vpn, PageNum *evictedOut);
};

} // namespace vcoma

#endif // VCOMA_TLB_TLB_HH
