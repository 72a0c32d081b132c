/**
 * @file
 * Equivalence tests for the hit fast path: a simulation with the
 * fast path enabled must be indistinguishable — every RunStats field,
 * every component counter — from the same simulation with the fast
 * path disabled. The fast path is a speed knob, never a model knob.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct RunResult
{
    RunStats stats;
    /** Full stats sheet (every component counter). */
    std::string dump;
    /** writeRunStatsJson() output (every RunStats field). */
    std::string json;
    bool fastPathActive = false;
};

/**
 * The FLC-hit-heavy regime: each thread re-sweeps a private buffer
 * that fits its FLC, so after the first sweep nearly every read is an
 * FLC hit and nearly every write a silent store (AM Exclusive, SLC
 * hit), the two cases the fast path filters. Compute phases grow with
 * the thread id, so the event heap sees asymmetric timing instead of
 * lockstep.
 */
class FlcResweepWorkload : public Workload
{
  public:
    static constexpr const char *label = "FLC-RESWEEP";

    FlcResweepWorkload(unsigned threads, unsigned iterations)
        : threads_(threads), iterations_(iterations)
    {
        for (unsigned t = 0; t < threads; ++t) {
            bases_.push_back(space_.alloc(
                "resweep.buf" + std::to_string(t), bufBytes,
                /*align=*/4096));
        }
    }

    std::string name() const override { return label; }

    std::string
    parameters() const override
    {
        return std::to_string(iterations_) + " sweeps of " +
               std::to_string(bufBytes) + " B per thread";
    }

    unsigned numThreads() const override { return threads_; }
    const AddressSpace &space() const override { return space_; }
    Generator<MemRef> thread(unsigned tid) override { return body(tid); }

  private:
    static constexpr unsigned bufBytes = 2048;

    Generator<MemRef>
    body(unsigned tid)
    {
        const VAddr base = bases_[tid];
        const std::uint32_t work = 2u << (2 * tid);
        for (unsigned it = 0; it < iterations_; ++it) {
            for (unsigned off = 0; off < bufBytes; off += 32) {
                co_yield MemRef::read(base + off, work);
                if (off % 256 == 0)
                    co_yield MemRef::write(base + off, work);
            }
        }
    }

    unsigned threads_;
    unsigned iterations_;
    AddressSpace space_;
    std::vector<VAddr> bases_;
};

RunResult
runMachine(const MachineConfig &cfg, Workload &workload)
{
    Machine machine(cfg);
    RunResult r;
    r.stats = machine.run(workload);
    std::ostringstream dump;
    machine.dumpStats(dump);
    r.dump = dump.str();
    std::ostringstream json;
    writeRunStatsJson(json, r.stats);
    r.json = json.str();
    r.fastPathActive = machine.fastPathActive();
    return r;
}

RunResult
runOnce(Scheme scheme, const std::string &workload, bool fastPath)
{
    MachineConfig cfg = tinyConfig(scheme);
    cfg.fastPath = fastPath;
    if (workload == FlcResweepWorkload::label) {
        cfg.flc.sizeBytes = 8 * 1024;  // covers the 2 KB buffer
        cfg.slc.sizeBytes = 32 * 1024;
        FlcResweepWorkload w(cfg.numNodes, /*iterations=*/200);
        return runMachine(cfg, w);
    }
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto w = makeWorkload(workload, p);
    return runMachine(cfg, *w);
}

/** Field-by-field comparison with readable failure messages. */
void
expectSameStats(const RunStats &fast, const RunStats &slow)
{
    EXPECT_EQ(fast.workload, slow.workload);
    EXPECT_EQ(fast.parameters, slow.parameters);
    EXPECT_EQ(fast.scheme, slow.scheme);
    EXPECT_EQ(fast.numNodes, slow.numNodes);
    EXPECT_EQ(fast.sharedBytes, slow.sharedBytes);
    EXPECT_EQ(fast.execTime, slow.execTime);
    EXPECT_EQ(fast.tlbAccesses, slow.tlbAccesses);
    EXPECT_EQ(fast.tlbMisses, slow.tlbMisses);
    EXPECT_EQ(fast.flcAccesses, slow.flcAccesses);
    EXPECT_EQ(fast.flcMisses, slow.flcMisses);
    EXPECT_EQ(fast.slcAccesses, slow.slcAccesses);
    EXPECT_EQ(fast.slcMisses, slow.slcMisses);
    EXPECT_EQ(fast.amHits, slow.amHits);
    EXPECT_EQ(fast.amMisses, slow.amMisses);
    EXPECT_EQ(fast.remoteReads, slow.remoteReads);
    EXPECT_EQ(fast.remoteWrites, slow.remoteWrites);
    EXPECT_EQ(fast.upgrades, slow.upgrades);
    EXPECT_EQ(fast.invalidations, slow.invalidations);
    EXPECT_EQ(fast.pageFaults, slow.pageFaults);
    ASSERT_EQ(fast.cpus.size(), slow.cpus.size());
    for (std::size_t i = 0; i < fast.cpus.size(); ++i) {
        EXPECT_EQ(fast.cpus[i].reads, slow.cpus[i].reads) << "cpu " << i;
        EXPECT_EQ(fast.cpus[i].writes, slow.cpus[i].writes)
            << "cpu " << i;
        EXPECT_EQ(fast.cpus[i].finish, slow.cpus[i].finish)
            << "cpu " << i;
    }
}

void
expectIdentical(const RunResult &fast, const RunResult &slow)
{
    expectSameStats(fast.stats, slow.stats);
    // The JSON line carries every RunStats field (shadow sweep,
    // pressure profile, latency summaries): require exact identity,
    // which is also what $VCOMA_STATS_JSON consumers would diff.
    EXPECT_EQ(fast.json, slow.json);
    // And the full component hierarchy: per-node cache/AM/TLB/network
    // counters must match, not just the aggregated sheet.
    EXPECT_EQ(fast.dump, slow.dump);
}

using Case = std::tuple<Scheme, std::string>;

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string n = std::string(schemeName(std::get<0>(info.param))) +
                    "_" + std::get<1>(info.param);
    n.erase(std::remove_if(n.begin(), n.end(),
                           [](char c) {
                               return !std::isalnum(
                                          static_cast<unsigned char>(c)) &&
                                      c != '_';
                           }),
            n.end());
    return n;
}

} // namespace

class FastPathEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(FastPathEquivalence, IdenticalStatsOnAndOff)
{
    const auto [scheme, workload] = GetParam();
    const RunResult fast = runOnce(scheme, workload, /*fastPath=*/true);
    const RunResult slow = runOnce(scheme, workload, /*fastPath=*/false);

    // The knob must actually gate the path (L0 is structurally
    // excluded: its per-reference TLB charge leaves no pure hit).
    EXPECT_FALSE(slow.fastPathActive);
    EXPECT_EQ(fast.fastPathActive, scheme != Scheme::L0);

    expectIdentical(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllWorkloads, FastPathEquivalence,
    ::testing::Combine(::testing::Values(Scheme::L0, Scheme::L1,
                                         Scheme::L2, Scheme::L3,
                                         Scheme::VCOMA),
                       ::testing::Values("RADIX", "FFT", "FMM", "OCEAN",
                                         "RAYTRACE", "BARNES", "UNIFORM",
                                         "STRIDE", "HOTSPOT")),
    caseName);

INSTANTIATE_TEST_SUITE_P(
    FlcResweep, FastPathEquivalence,
    ::testing::Values(Case{Scheme::VCOMA, FlcResweepWorkload::label}),
    caseName);

TEST(FastPathTrace, RecordReplayRoundTripIsIdentical)
{
    // Record a packed trace once, then replay it twice — fast path on
    // and off — and require identical stats sheets.
    const std::string trace =
        (std::filesystem::temp_directory_path() /
         ("vcoma_test_fastpath_" + std::to_string(::getpid()) +
          ".vctrace"))
            .string();
    {
        WorkloadParams p;
        p.threads = 4;
        p.scale = 0.02;
        auto live = makeWorkload("HOTSPOT", p);
        RecordingWorkload recorder(*live, trace, "fastpath-trace");
        Machine machine(tinyConfig(Scheme::VCOMA));
        machine.run(recorder);
        ASSERT_TRUE(recorder.finalize());
    }

    auto replayOnce = [&](bool fastPath) {
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.fastPath = fastPath;
        ReplayWorkload w(trace);
        return runMachine(cfg, w);
    };
    const RunResult fast = replayOnce(true);
    const RunResult slow = replayOnce(false);
    std::filesystem::remove(trace);
    EXPECT_GT(fast.stats.totalRefs(), 0u);
    expectIdentical(fast, slow);
}

TEST(FastPathCheckLevel, DeepCheckingDisablesFastPath)
{
    // checkLevel >= 2 runs checkVersion on FLC read hits; the fast
    // path must step aside rather than skip the check.
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.fastPath = true;
    cfg.checkLevel = 2;
    Machine machine(cfg);
    EXPECT_FALSE(machine.fastPathActive());
}
