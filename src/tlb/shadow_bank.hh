/**
 * @file
 * Shadow TLB banks: observer TLBs of many sizes and organisations fed
 * with the same reference stream as the configured translation
 * structure.
 *
 * Translation-structure *contents* never change which references the
 * processor issues (only their timing), so one simulation pass can
 * measure the entire size sweep of Figure 8 and the direct-mapped
 * comparison of Figure 9 simultaneously. The banks have no timing
 * effect; Table 4 / Figure 10 use a dedicated configured TLB instead.
 */

#ifndef VCOMA_TLB_SHADOW_BANK_HH
#define VCOMA_TLB_SHADOW_BANK_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "tlb/tlb.hh"

namespace vcoma
{

/** The TLB/DLB sizes swept by the paper's Figure 8. */
const std::vector<unsigned> &shadowSizes();

/**
 * Access and miss counts of one shadow member, or their sum over the
 * banks of one translation point.
 */
struct ShadowCounts
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t writebackAccesses = 0;
    std::uint64_t writebackMisses = 0;

    std::uint64_t misses() const { return demandMisses + writebackMisses; }

    std::uint64_t
    accesses() const
    {
        return demandAccesses + writebackAccesses;
    }

    ShadowCounts &
    operator+=(const ShadowCounts &o)
    {
        demandAccesses += o.demandAccesses;
        demandMisses += o.demandMisses;
        writebackAccesses += o.writebackAccesses;
        writebackMisses += o.writebackMisses;
        return *this;
    }
};

/**
 * One node's (or one home's) collection of shadow TLBs: every size in
 * shadowSizes(), each in fully associative and direct-mapped flavours.
 *
 * Each member behaves exactly like a Tlb of its geometry seeded with
 * `seed + 31 * n` (n = 1, 2, ... in member order), but the bank keeps
 * one residency index for all of them. Members are pure observers:
 * they change only through access() and are never invalidated, and a
 * hit changes no state in either organisation (FA replacement is
 * random, DM has one way). So one probe of a `vpn -> member mask`
 * table decides every member's hit, and only the members that miss
 * run their fill, drawing victims from their own RNG over their own
 * slot array exactly as the Tlb does.
 */
class ShadowBank
{
  public:
    /**
     * @param seed base seed (each member derives its own stream)
     * @param sizes entry counts to instantiate, each at least 1 and a
     *              power of two for the direct-mapped member; at most
     *              maxMembers / 2 sizes. Defaults to shadowSizes().
     * @param indexShift low vpn bits the direct-mapped members skip
     *              when selecting the set (see Tlb)
     */
    explicit ShadowBank(std::uint64_t seed,
                        const std::vector<unsigned> &sizes = shadowSizes(),
                        unsigned indexShift = 0);

    /** Feed one reference to every member. */
    void access(PageNum vpn, StreamClass cls = StreamClass::Demand);

    /**
     * Counters of the member with @p entries and associativity
     * @p assoc (0 = FA, 1 = DM); fatal if the bank has no such member.
     */
    ShadowCounts counts(unsigned entries, unsigned assoc) const;

    /** Members one bank can hold: one bit each in the residency mask. */
    static constexpr unsigned maxMembers = 16;

  private:
    using MemberMask = std::uint16_t;

    struct Member
    {
        unsigned entries;
        unsigned assoc;        ///< 0 = fully associative, 1 = DM
        unsigned base;         ///< first slot in slots_
        unsigned filled = 0;   ///< FA: slots taken so far (in order)
        Rng rng;               ///< FA: random replacement stream
        std::uint64_t demandMisses = 0;
        std::uint64_t writebackMisses = 0;
    };

    std::vector<Member> members_;
    /** Every member's slots, member after member (noVpn = empty). */
    std::vector<PageNum> slots_;
    unsigned indexShift_;
    MemberMask allMembers_ = 0;

    // Residency index: for every page resident in at least one member,
    // which members hold it. Open-addressed over parallel vpn/mask
    // arrays of power-of-two size at least twice the total member
    // entries (so at most half full), Fibonacci hashing, linear
    // probing and backward-shift erase, like Tlb's FA index.
    std::vector<PageNum> indexVpn_;
    std::vector<MemberMask> indexMask_;
    unsigned hashShift_ = 0;

    /** Every member sees every access, so two counters serve all. */
    std::uint64_t demandAccesses_ = 0;
    std::uint64_t writebackAccesses_ = 0;
    /** Page of the previous access(): resident in every member. */
    PageNum last_ = Tlb::noVpn;

    /** Index position holding @p vpn, or the empty one ending its probe. */
    std::size_t indexFind(PageNum vpn) const;
    void indexErase(std::size_t pos);
    /** Fill @p vpn into member @p m; returns the page evicted, or noVpn. */
    PageNum fill(Member &m, PageNum vpn);
};

} // namespace vcoma

#endif // VCOMA_TLB_SHADOW_BANK_HH
