/**
 * @file
 * Byte-identity tests for packed-trace record/replay: a simulation
 * replayed from a recorded trace must be indistinguishable — every
 * RunStats field, every component counter, the stats JSON byte for
 * byte — from the live run that recorded it, with the fast path both
 * on and off. Replay is a speed knob, never a model knob.
 *
 * Also covers the Runner integration ($VCOMA_TRACE_DIR): the first
 * execution records, later executions replay, and an unusable trace
 * falls back to live generation and re-records instead of crashing or
 * silently replaying garbage.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/memref_pack.hh"
#include "sim/run_stats_json.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct TempDir
{
    TempDir()
    {
        // pid + per-process sequence: tests that hold several live
        // TempDirs at once (trace dir + two cache dirs) must not
        // collide.
        static int seq = 0;
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_replay_" + std::to_string(::getpid()) +
                "_" + std::to_string(seq++));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

/** Scoped setenv/unsetenv that restores the previous value. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        else
            wasSet_ = false;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (wasSet_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    const char *name_;
    std::string saved_;
    bool wasSet_ = true;
};

struct RunResult
{
    RunStats stats;
    /** Full stats sheet (every component counter). */
    std::string dump;
    /** writeRunStatsJson() output (every RunStats field). */
    std::string json;
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
    return r;
}

/** Live run of @p workload, recorded into @p tracePath. */
RunResult
runLiveRecording(const std::string &workload, bool fastPath,
                 const std::string &tracePath)
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.fastPath = fastPath;
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto live = makeWorkload(workload, p);
    RecordingWorkload recorder(*live, tracePath, "identity-test");
    RunResult r = runMachine(cfg, recorder);
    EXPECT_TRUE(recorder.finalize());
    return r;
}

RunResult
runReplay(bool fastPath, const std::string &tracePath)
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.fastPath = fastPath;
    ReplayWorkload replay(tracePath);
    return runMachine(cfg, replay);
}

} // namespace

using Case = std::tuple<std::string, bool>;

class ReplayIdentity : public ::testing::TestWithParam<Case>
{
};

TEST_P(ReplayIdentity, ReplayedRunIsByteIdenticalToLiveRun)
{
    const auto [workload, fastPath] = GetParam();

    TempDir dir;
    const std::string trace = (dir.path / "run.vctrace").string();
    const RunResult live = runLiveRecording(workload, fastPath, trace);
    ASSERT_TRUE(std::filesystem::exists(trace));
    const RunResult replayed = runReplay(fastPath, trace);

    // The JSON line carries every RunStats field and the dump the
    // full per-component counter hierarchy: exact string identity is
    // the strongest statement the stats layer can express.
    EXPECT_EQ(replayed.json, live.json);
    EXPECT_EQ(replayed.dump, live.dump);
}

INSTANTIATE_TEST_SUITE_P(
    SplashKernelsAndSynthetic, ReplayIdentity,
    ::testing::Combine(::testing::Values("RADIX", "FFT", "FMM", "OCEAN",
                                         "RAYTRACE", "BARNES",
                                         "UNIFORM", "KVLOOKUP", "GRAPH",
                                         "STREAMJOIN"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string n = std::get<0>(info.param) +
                        (std::get<1>(info.param) ? "_fast" : "_slow");
        n.erase(std::remove_if(n.begin(), n.end(),
                               [](char c) {
                                   return !std::isalnum(
                                              static_cast<unsigned char>(
                                                  c)) &&
                                          c != '_';
                               }),
                n.end());
        return n;
    });

TEST(Replay, CarriesRecordedWorkloadIdentity)
{
    // name()/parameters()/sharedBytes() come from the trace header,
    // so a replayed run's stats sheet names the real workload.
    TempDir dir;
    const std::string trace = (dir.path / "meta.vctrace").string();
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto live = makeWorkload("UNIFORM", p);
    RecordingWorkload recorder(*live, trace, "meta-key");
    Machine machine(cfg);
    machine.run(recorder);
    ASSERT_TRUE(recorder.finalize());

    ReplayWorkload replay(trace);
    EXPECT_EQ(replay.name(), live->name());
    EXPECT_EQ(replay.parameters(), live->parameters());
    EXPECT_EQ(replay.numThreads(), live->numThreads());
    EXPECT_EQ(replay.sharedBytes(), live->sharedBytes());
    EXPECT_EQ(replay.recordedKey(), "meta-key");
    EXPECT_GT(replay.totalEvents(), 0u);
    EXPECT_TRUE(replay.materialised());
}

TEST(Replay, CoroutineViewMatchesMaterialisedStreams)
{
    // thread(tid) and stream(tid) must expose the same events:
    // decorators such as RecordingWorkload use the coroutine view
    // while Machine::run consumes the spans.
    TempDir dir;
    const std::string trace = (dir.path / "views.vctrace").string();
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto live = makeWorkload("STRIDE", p);
    RecordingWorkload recorder(*live, trace, "k");
    Machine machine(cfg);
    machine.run(recorder);
    ASSERT_TRUE(recorder.finalize());

    ReplayWorkload replay(trace);
    for (unsigned tid = 0; tid < replay.numThreads(); ++tid) {
        const auto span = replay.stream(tid);
        Generator<MemRef> gen = replay.thread(tid);
        std::size_t i = 0;
        while (const MemRef *ref = gen.nextPtr()) {
            ASSERT_LT(i, span.size()) << "tid " << tid;
            EXPECT_EQ(ref->kind, span[i].kind);
            EXPECT_EQ(ref->vaddr, span[i].vaddr);
            EXPECT_EQ(ref->work, span[i].work);
            ++i;
        }
        EXPECT_EQ(i, span.size()) << "tid " << tid;
    }
}

namespace
{

ExperimentConfig
tinyExperiment()
{
    ExperimentConfig cfg;
    cfg.workload = "UNIFORM";
    cfg.scheme = Scheme::VCOMA;
    cfg.nodes = 32;
    cfg.scale = 0.02;
    return cfg;
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats);
    return os.str();
}

} // namespace

TEST(RunnerReplay, FirstRunRecordsLaterRunsReplayIdentically)
{
    TempDir traces;
    EnvGuard traceDir("VCOMA_TRACE_DIR", traces.path.string().c_str());
    EnvGuard traceMax("VCOMA_TRACE_MAX_MB", nullptr);
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath =
        (traces.path / (cfg.key() + ".vctrace")).string();

    // No disk cache: each fresh Runner must actually simulate, which
    // is exactly what makes the second one replay.
    std::string first;
    {
        Runner runner("");
        first = statsJson(runner.run(cfg));
        EXPECT_EQ(runner.executed(), 1u);
    }
    EXPECT_TRUE(std::filesystem::exists(tracePath))
        << "first execution must record its trace";
    {
        Runner runner("");
        EXPECT_EQ(statsJson(runner.run(cfg)), first)
            << "replayed execution diverged from the live run";
        EXPECT_EQ(runner.executed(), 1u);
    }
}

TEST(RunnerReplay, ReplayedRunWritesByteIdenticalCacheEntries)
{
    // The disk-cache entry a replayed execution stores must be byte
    // for byte the file the live execution would have written: the
    // cache cannot tell (and must not care) which mode produced it.
    TempDir traces;
    TempDir liveCache;
    TempDir replayCache;
    EnvGuard traceDir("VCOMA_TRACE_DIR", traces.path.string().c_str());
    EnvGuard traceMax("VCOMA_TRACE_MAX_MB", nullptr);
    const ExperimentConfig cfg = tinyExperiment();

    {
        Runner runner(liveCache.path.string());
        runner.run(cfg);
        EXPECT_EQ(runner.executed(), 1u);
    }
    {
        Runner runner(replayCache.path.string());
        runner.run(cfg);
        EXPECT_EQ(runner.executed(), 1u) << "fresh cache must simulate";
    }
    const std::filesystem::path entry =
        std::filesystem::path(cfg.key() + ".txt");
    const auto readAll = [](const std::filesystem::path &p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    const std::string live = readAll(liveCache.path / entry);
    const std::string replayed = readAll(replayCache.path / entry);
    ASSERT_FALSE(live.empty());
    EXPECT_EQ(replayed, live)
        << "replayed run's cache entry differs from the live run's";
}

TEST(RunnerReplay, CorruptTraceFallsBackAndReRecords)
{
    TempDir traces;
    EnvGuard traceDir("VCOMA_TRACE_DIR", traces.path.string().c_str());
    EnvGuard traceMax("VCOMA_TRACE_MAX_MB", nullptr);
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath =
        (traces.path / (cfg.key() + ".vctrace")).string();

    std::string first;
    {
        Runner runner("");
        first = statsJson(runner.run(cfg));
    }
    ASSERT_TRUE(std::filesystem::exists(tracePath));
    // Clobber the trace: the next run must not crash, must not
    // replay garbage, and must leave a valid re-recorded trace.
    std::ofstream(tracePath, std::ios::binary | std::ios::trunc)
        << "not a trace";
    {
        Runner runner("");
        EXPECT_EQ(statsJson(runner.run(cfg)), first)
            << "fallback run diverged from the original";
    }
    EXPECT_NO_THROW(PackedTrace{tracePath})
        << "fallback must re-record a valid trace";
}

TEST(RunnerReplay, TruncatedTraceFallsBack)
{
    TempDir traces;
    EnvGuard traceDir("VCOMA_TRACE_DIR", traces.path.string().c_str());
    EnvGuard traceMax("VCOMA_TRACE_MAX_MB", nullptr);
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath =
        (traces.path / (cfg.key() + ".vctrace")).string();

    std::string first;
    {
        Runner runner("");
        first = statsJson(runner.run(cfg));
    }
    ASSERT_TRUE(std::filesystem::exists(tracePath));
    std::filesystem::resize_file(
        tracePath, std::filesystem::file_size(tracePath) / 2);
    Runner runner("");
    EXPECT_EQ(statsJson(runner.run(cfg)), first);
}

TEST(RunnerReplay, TraceWorkloadSpellingMatchesTheRecordedRun)
{
    // An external trace promoted to a first-class workload
    // ("TRACE:<path>") must reproduce the recorded run's sheet byte
    // for byte: the trace header carries the original workload's
    // name/parameters, so even the labelling is identical.
    TempDir traces;
    std::string first;
    std::string tracePath;
    {
        EnvGuard traceDir("VCOMA_TRACE_DIR",
                          traces.path.string().c_str());
        EnvGuard traceMax("VCOMA_TRACE_MAX_MB", nullptr);
        Runner runner("");
        const ExperimentConfig cfg = tinyExperiment();
        first = statsJson(runner.run(cfg));
        tracePath = (traces.path / (cfg.key() + ".vctrace")).string();
    }
    ASSERT_TRUE(std::filesystem::exists(tracePath));

    // Replay through the TRACE: spelling, with no trace dir in play.
    ExperimentConfig replayCfg = tinyExperiment();
    replayCfg.workload = "TRACE:" + tracePath;
    Runner runner("");
    EXPECT_EQ(statsJson(runner.run(replayCfg)), first)
        << "TRACE: workload diverged from the run that recorded it";
    EXPECT_EQ(runner.executed(), 1u);
}

TEST(RunnerReplay, TraceWorkloadsBypassTheRecordReplayDir)
{
    // With VCOMA_TRACE_DIR set, a TRACE: workload must neither look
    // for a recorded trace under its own key nor re-record one —
    // recording a replay is circular and its key could never match.
    TempDir traces;
    std::string tracePath;
    std::string first;
    {
        EnvGuard traceDir("VCOMA_TRACE_DIR",
                          traces.path.string().c_str());
        EnvGuard traceMax("VCOMA_TRACE_MAX_MB", nullptr);
        const ExperimentConfig cfg = tinyExperiment();
        {
            Runner runner("");
            first = statsJson(runner.run(cfg));
        }
        tracePath = (traces.path / (cfg.key() + ".vctrace")).string();
        ASSERT_TRUE(std::filesystem::exists(tracePath));

        ExperimentConfig replayCfg = tinyExperiment();
        replayCfg.workload = "TRACE:" + tracePath;
        Runner runner("");
        EXPECT_EQ(statsJson(runner.run(replayCfg)), first);
    }
    unsigned traceFiles = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(traces.path)) {
        if (entry.path().extension() == ".vctrace")
            ++traceFiles;
    }
    EXPECT_EQ(traceFiles, 1u)
        << "the TRACE: run must not add traces to the record dir";
}

TEST(RunnerReplay, KeyMismatchedTraceIsRegenerated)
{
    // A trace recorded under some other config (say, after a rename
    // or a copied directory) must never be replayed for this one.
    TempDir traces;
    EnvGuard traceDir("VCOMA_TRACE_DIR", traces.path.string().c_str());
    EnvGuard traceMax("VCOMA_TRACE_MAX_MB", nullptr);
    const ExperimentConfig uniform = tinyExperiment();
    ExperimentConfig stride = tinyExperiment();
    stride.workload = "STRIDE";

    std::string strideJson;
    {
        Runner runner("");
        runner.run(uniform);
        strideJson = statsJson(runner.run(stride));
    }
    // Plant UNIFORM's trace at STRIDE's path.
    std::filesystem::copy_file(
        traces.path / (uniform.key() + ".vctrace"),
        traces.path / (stride.key() + ".vctrace"),
        std::filesystem::copy_options::overwrite_existing);
    Runner runner("");
    EXPECT_EQ(statsJson(runner.run(stride)), strideJson)
        << "a key-mismatched trace must be regenerated, not replayed";
}
