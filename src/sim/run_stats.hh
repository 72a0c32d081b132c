/**
 * @file
 * The statistics sheet produced by one simulation run: per-processor
 * execution-time breakdown (Figure 10's busy / sync / loc-stall /
 * rem-stall components plus translation overhead), the shadow TLB/DLB
 * sweep (Figures 8 and 9, Tables 2 and 3), the configured translation
 * structure's counts (Table 4), the global-set pressure profile
 * (Figure 11) and protocol/network event counters.
 */

#ifndef VCOMA_SIM_RUN_STATS_HH
#define VCOMA_SIM_RUN_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/shadow_bank.hh"

namespace vcoma
{

/** One processor's accounting. */
struct CpuStats
{
    std::uint64_t refs = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** @{ @name Cycle buckets (they partition finish time) */
    std::uint64_t busy = 0;
    std::uint64_t sync = 0;
    std::uint64_t locStall = 0;
    std::uint64_t remStall = 0;
    std::uint64_t xlatStall = 0;
    /** @} */
    Tick finish = 0;

    std::uint64_t
    accounted() const
    {
        return busy + sync + locStall + remStall + xlatStall;
    }
};

/** One (size, organisation) point of the shadow sweep, machine-wide. */
struct ShadowPoint : ShadowCounts
{
    unsigned entries = 0;
    unsigned assoc = 0;  ///< 0 = fully associative
};

/** Everything a run reports. */
struct RunStats
{
    std::string workload;
    std::string parameters;
    Scheme scheme = Scheme::L0;
    unsigned numNodes = 0;
    std::uint64_t sharedBytes = 0;

    std::vector<CpuStats> cpus;
    Tick execTime = 0;

    /** Shadow sweep at the scheme's translation point. */
    std::vector<ShadowPoint> shadow;

    /** Configured (timed) TLB/DLB totals across nodes. */
    std::uint64_t tlbAccesses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbWritebackAccesses = 0;
    std::uint64_t tlbWritebackMisses = 0;

    /** Global page-set pressure profile (Figure 11). */
    std::vector<double> pressureProfile;

    /** @{ @name Cache totals */
    std::uint64_t flcAccesses = 0;
    std::uint64_t flcMisses = 0;
    std::uint64_t slcAccesses = 0;
    std::uint64_t slcMisses = 0;
    std::uint64_t amHits = 0;
    std::uint64_t amMisses = 0;
    /** @} */

    /** @{ @name Protocol counters */
    std::uint64_t remoteReads = 0;
    std::uint64_t remoteWrites = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t injections = 0;
    std::uint64_t injectionHops = 0;
    std::uint64_t sharedDrops = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t tlbShootdowns = 0;
    /** @} */

    /** @{ @name Network counters */
    std::uint64_t requestMessages = 0;
    std::uint64_t blockMessages = 0;
    /** @} */

    /**
     * @{ @name DLB effect evidence (the paper's V-COMA advantages)
     *
     * The three reasons a home-node DLB beats per-node TLBs:
     * filtering (most references are satisfied by local caches/AM and
     * never reach the home DLB), sharing (one DLB entry serves
     * requests from several nodes) and prefetching (the fill done for
     * one requester is already there for the next). Zero for the
     * per-node-TLB schemes.
     */
    /** References satisfied below the home DLB (absorbed locally). */
    std::uint64_t dlbFilteredRefs = 0;
    /** DLB hits by a node other than the one whose miss filled it. */
    std::uint64_t dlbSharedHits = 0;
    /** DLB fills that later served at least one other node. */
    std::uint64_t dlbPrefetchedFills = 0;
    /** Distinct requester nodes per retired DLB entry. */
    DistSummary dlbRequestersPerEntry;
    /** @} */

    /**
     * @{ @name VICTIMA spill evidence
     *
     * Under slcTlbSpill schemes, TLB victims spill into SLC frames
     * and each TLB miss probes them before paying the walk: probes,
     * probe hits (walks avoided), and victims spilled. Zero for every
     * other scheme.
     */
    std::uint64_t tlbSpillProbes = 0;
    std::uint64_t tlbSpillHits = 0;
    std::uint64_t tlbSpillFills = 0;
    /** @} */

    /** @{ @name Latency distributions (cycles) */
    DistSummary remoteReadLatency;   ///< network round-trip, remote reads
    DistSummary remoteWriteLatency;  ///< round-trip, remote writes/upgrades
    DistSummary dlbFillLatency;      ///< translation penalty per DLB fill
    /** @} */

    /** @{ @name Aggregates */
    std::uint64_t totalRefs() const;
    std::uint64_t totalBusy() const;
    std::uint64_t totalSync() const;
    std::uint64_t totalLocStall() const;
    std::uint64_t totalRemStall() const;
    std::uint64_t totalXlatStall() const;
    /** @} */

    /** Find the shadow point for (entries, assoc); fatal if absent. */
    const ShadowPoint &shadowPoint(unsigned entries, unsigned assoc) const;

    /**
     * Translation misses per node (the y-axis of Figure 8).
     * @param includeWritebacks include the write-back stream
     */
    double missesPerNode(unsigned entries, unsigned assoc,
                         bool includeWritebacks) const;

    /**
     * Miss rate per processor reference in percent (Table 2);
     * the write-back stream is included for the schemes where
     * write-backs consult the TLB.
     */
    double missRatePct(unsigned entries, unsigned assoc,
                       bool includeWritebacks) const;

    /**
     * Table 4's metric: translation stall as a percentage of the
     * memory stall (loc + rem) time.
     */
    double xlatOverTotalStallPct() const;
};

} // namespace vcoma

#endif // VCOMA_SIM_RUN_STATS_HH
