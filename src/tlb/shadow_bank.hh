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

#include "tlb/tlb.hh"

namespace vcoma
{

/** The TLB/DLB sizes swept by the paper's Figure 8. */
const std::vector<unsigned> &shadowSizes();

/**
 * One node's (or one home's) collection of shadow TLBs: every size in
 * shadowSizes(), each in fully associative and direct-mapped flavours.
 */
class ShadowBank
{
  public:
    /**
     * @param seed base seed (each member derives its own stream)
     * @param sizes entry counts to instantiate, each at least 1;
     *              defaults to shadowSizes()
     */
    explicit ShadowBank(std::uint64_t seed,
                        const std::vector<unsigned> &sizes = shadowSizes(),
                        unsigned indexShift = 0);

    /**
     * Feed one reference to every member TLB. Members change only
     * here, so a repeat of the previous page hits in every member and
     * just bumps their access counters.
     */
    void access(PageNum vpn, StreamClass cls = StreamClass::Demand);

    /** Find the member with @p entries and associativity @p assoc. */
    const Tlb *find(unsigned entries, unsigned assoc) const;

    const std::vector<Tlb> &members() const { return members_; }

  private:
    /**
     * Flat member storage: every access() touches every member, so
     * keeping the Tlbs contiguous (rather than behind one pointer
     * indirection each) matters on the per-reference shadow path.
     */
    std::vector<Tlb> members_;
    /** Page of the previous access(): resident in every member. */
    PageNum last_ = Tlb::noVpn;
};

/**
 * Aggregated view over the per-node banks of one translation point:
 * total misses/accesses for a given (size, organisation) across all
 * nodes.
 */
struct ShadowTotals
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t writebackAccesses = 0;
    std::uint64_t writebackMisses = 0;

    std::uint64_t
    misses() const
    {
        return demandMisses + writebackMisses;
    }

    std::uint64_t
    accesses() const
    {
        return demandAccesses + writebackAccesses;
    }
};

/** Sum the counters of every bank's member matching (entries, assoc). */
ShadowTotals sumShadow(const std::vector<ShadowBank> &banks,
                       unsigned entries, unsigned assoc);

} // namespace vcoma

#endif // VCOMA_TLB_SHADOW_BANK_HH
