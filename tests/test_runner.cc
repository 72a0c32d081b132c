/** @file Tests for the experiment runner and its disk cache. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/experiments.hh"
#include "harness/runner.hh"
#include "translation/scheme.hh"

using namespace vcoma;

namespace
{

ExperimentConfig
tinyExperiment()
{
    ExperimentConfig cfg;
    cfg.workload = "UNIFORM";
    cfg.scheme = Scheme::VCOMA;
    cfg.nodes = 32;
    cfg.scale = 0.05;
    return cfg;
}

/** A small batch of distinct, fast configs for the runAll tests. */
std::vector<ExperimentConfig>
tinyBatch()
{
    std::vector<ExperimentConfig> cfgs;
    for (const char *name : {"UNIFORM", "STRIDE", "HOTSPOT"}) {
        for (Scheme s : {Scheme::VCOMA, Scheme::L0}) {
            ExperimentConfig cfg = tinyExperiment();
            cfg.workload = name;
            cfg.scheme = s;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

/** Every field of the stats sheet must match bit for bit. */
void
expectSameStats(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.parameters, b.parameters);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.numNodes, b.numNodes);
    EXPECT_EQ(a.sharedBytes, b.sharedBytes);
    EXPECT_EQ(a.execTime, b.execTime);
    ASSERT_EQ(a.cpus.size(), b.cpus.size());
    for (std::size_t i = 0; i < a.cpus.size(); ++i) {
        EXPECT_EQ(a.cpus[i].refs, b.cpus[i].refs);
        EXPECT_EQ(a.cpus[i].busy, b.cpus[i].busy);
        EXPECT_EQ(a.cpus[i].sync, b.cpus[i].sync);
        EXPECT_EQ(a.cpus[i].locStall, b.cpus[i].locStall);
        EXPECT_EQ(a.cpus[i].remStall, b.cpus[i].remStall);
        EXPECT_EQ(a.cpus[i].xlatStall, b.cpus[i].xlatStall);
        EXPECT_EQ(a.cpus[i].finish, b.cpus[i].finish);
    }
    ASSERT_EQ(a.shadow.size(), b.shadow.size());
    for (std::size_t i = 0; i < a.shadow.size(); ++i) {
        EXPECT_EQ(a.shadow[i].demandAccesses, b.shadow[i].demandAccesses);
        EXPECT_EQ(a.shadow[i].demandMisses, b.shadow[i].demandMisses);
        EXPECT_EQ(a.shadow[i].writebackMisses,
                  b.shadow[i].writebackMisses);
    }
    EXPECT_EQ(a.tlbAccesses, b.tlbAccesses);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.pressureProfile, b.pressureProfile);
    EXPECT_EQ(a.flcMisses, b.flcMisses);
    EXPECT_EQ(a.slcMisses, b.slcMisses);
    EXPECT_EQ(a.amHits, b.amHits);
    EXPECT_EQ(a.amMisses, b.amMisses);
    EXPECT_EQ(a.remoteReads, b.remoteReads);
    EXPECT_EQ(a.remoteWrites, b.remoteWrites);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.injections, b.injections);
    EXPECT_EQ(a.pageFaults, b.pageFaults);
    EXPECT_EQ(a.swapOuts, b.swapOuts);
    EXPECT_EQ(a.requestMessages, b.requestMessages);
    EXPECT_EQ(a.blockMessages, b.blockMessages);
}

struct TempDir
{
    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_cache_" + std::to_string(::getpid()));
        std::filesystem::remove_all(path);
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

} // namespace

TEST(ExperimentConfig, KeyEncodesEveryField)
{
    ExperimentConfig a = tinyExperiment();
    ExperimentConfig b = a;
    EXPECT_EQ(a.key(), b.key());
    b.tlbEntries = 16;
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.scheme = Scheme::L0;
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.writebacksAccessTlb = false;
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.raytraceV2 = true;
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.scale = 2.0;
    EXPECT_NE(a.key(), b.key());
}

TEST(Runner, MemoisesWithinProcess)
{
    Runner runner("");  // no disk cache
    const RunStats &a = runner.run(tinyExperiment());
    const RunStats &b = runner.run(tinyExperiment());
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(runner.executed(), 1u);
}

TEST(Runner, DiskCacheRoundTripsAllFields)
{
    TempDir dir;
    RunStats first;
    {
        Runner runner(dir.path.string());
        first = runner.run(tinyExperiment());
        EXPECT_EQ(runner.executed(), 1u);
    }
    {
        Runner runner(dir.path.string());
        const RunStats &again = runner.run(tinyExperiment());
        EXPECT_EQ(runner.executed(), 0u) << "must come from disk";
        EXPECT_EQ(again.workload, first.workload);
        EXPECT_EQ(again.parameters, first.parameters);
        EXPECT_EQ(again.scheme, first.scheme);
        EXPECT_EQ(again.numNodes, first.numNodes);
        EXPECT_EQ(again.execTime, first.execTime);
        EXPECT_EQ(again.totalRefs(), first.totalRefs());
        EXPECT_EQ(again.totalSync(), first.totalSync());
        ASSERT_EQ(again.shadow.size(), first.shadow.size());
        for (std::size_t i = 0; i < first.shadow.size(); ++i) {
            EXPECT_EQ(again.shadow[i].demandMisses,
                      first.shadow[i].demandMisses);
            EXPECT_EQ(again.shadow[i].writebackMisses,
                      first.shadow[i].writebackMisses);
        }
        EXPECT_EQ(again.tlbMisses, first.tlbMisses);
        EXPECT_EQ(again.pressureProfile, first.pressureProfile);
        EXPECT_EQ(again.remoteReads, first.remoteReads);
        EXPECT_EQ(again.blockMessages, first.blockMessages);
        EXPECT_EQ(again.amMisses, first.amMisses);
    }
}

TEST(Runner, CorruptCacheFileIsIgnored)
{
    TempDir dir;
    Runner first(dir.path.string());
    first.run(tinyExperiment());
    // Corrupt every cache file.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        std::ofstream out(entry.path());
        out << "garbage\n";
    }
    Runner second(dir.path.string());
    second.run(tinyExperiment());
    EXPECT_EQ(second.executed(), 1u);
}

TEST(Runner, WrongMagicCacheFileIsRejected)
{
    TempDir dir;
    Runner first(dir.path.string());
    first.run(tinyExperiment());
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        std::ofstream out(entry.path());
        out << "vcoma-cache-v2\nworkload UNIFORM\nend\n";
    }
    Runner second(dir.path.string());
    second.run(tinyExperiment());
    EXPECT_EQ(second.executed(), 1u) << "old-format file must re-run";
}

TEST(Runner, TruncatedCacheFileIsRejected)
{
    TempDir dir;
    Runner first(dir.path.string());
    first.run(tinyExperiment());
    // Drop everything from the "end" marker on: a writer that died
    // mid-write (or a torn copy) must not be served.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        std::ifstream in(entry.path());
        std::ostringstream kept;
        std::string line;
        while (std::getline(in, line) && line != "end")
            kept << line << "\n";
        in.close();
        std::ofstream out(entry.path());
        out << kept.str();
    }
    Runner second(dir.path.string());
    second.run(tinyExperiment());
    EXPECT_EQ(second.executed(), 1u) << "truncated file must re-run";
}

TEST(Runner, StoreLeavesNoTempFiles)
{
    TempDir dir;
    Runner runner(dir.path.string());
    runner.run(tinyExperiment());
    unsigned files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        ++files;
        EXPECT_EQ(entry.path().extension(), ".txt")
            << entry.path() << " looks like an orphaned temp file";
    }
    EXPECT_EQ(files, 1u);
}

TEST(Runner, RunAllMatchesSerialBitIdentical)
{
    const std::vector<ExperimentConfig> cfgs = tinyBatch();

    Runner serial("");
    std::vector<const RunStats *> expected;
    for (const auto &cfg : cfgs)
        expected.push_back(&serial.run(cfg));

    EnvGuard env("VCOMA_JOBS", "4");
    Runner parallel("");
    const auto results = parallel.runAll(cfgs);
    EXPECT_EQ(parallel.executed(), cfgs.size());

    ASSERT_EQ(results.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(results[i]->workload,
                  serial.run(cfgs[i]).workload)
            << "submission order not preserved at " << i;
        expectSameStats(*results[i], *expected[i]);
    }
}

TEST(Runner, RunAllDedupsWithinBatch)
{
    std::vector<ExperimentConfig> cfgs{tinyExperiment(),
                                       tinyExperiment(),
                                       tinyExperiment()};
    EnvGuard env("VCOMA_JOBS", "4");
    Runner runner("");
    const auto results = runner.runAll(cfgs);
    EXPECT_EQ(runner.executed(), 1u);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[1], results[2]);
}

TEST(Runner, RunAllPopulatesAndReadsDiskCache)
{
    TempDir dir;
    const std::vector<ExperimentConfig> cfgs = tinyBatch();
    EnvGuard env("VCOMA_JOBS", "4");
    {
        Runner runner(dir.path.string());
        runner.runAll(cfgs);
        EXPECT_EQ(runner.executed(), cfgs.size());
    }
    Runner again(dir.path.string());
    const auto results = again.runAll(cfgs);
    EXPECT_EQ(again.executed(), 0u) << "must come from disk";
    ASSERT_EQ(results.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(results[i]->workload, cfgs[i].workload);
}

TEST(Runner, ConcurrentRunCallsAreSafe)
{
    const std::vector<ExperimentConfig> cfgs = tinyBatch();
    Runner runner("");
    std::vector<std::thread> threads;
    for (const auto &cfg : cfgs)
        threads.emplace_back([&runner, cfg] { runner.run(cfg); });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(runner.executed(), cfgs.size());
    // Everything is memoised now; a second pass must be free.
    for (const auto &cfg : cfgs)
        runner.run(cfg);
    EXPECT_EQ(runner.executed(), cfgs.size());
}

TEST(Runner, EnvScaleParsesStrictly)
{
    {
        EnvGuard env("VCOMA_SCALE", "2.5");
        EXPECT_DOUBLE_EQ(Runner::envScale(), 2.5);
    }
    {
        EnvGuard env("VCOMA_SCALE", "fast");
        EXPECT_DOUBLE_EQ(Runner::envScale(), 1.0);
    }
    {
        EnvGuard env("VCOMA_SCALE", "2.5x");
        EXPECT_DOUBLE_EQ(Runner::envScale(), 1.0);
    }
    {
        EnvGuard env("VCOMA_SCALE", "-3");
        EXPECT_DOUBLE_EQ(Runner::envScale(), 1.0);
    }
    {
        EnvGuard env("VCOMA_SCALE", nullptr);
        EXPECT_DOUBLE_EQ(Runner::envScale(), 1.0);
    }
}

TEST(Runner, NoCacheAcceptsConventionalTruthyValues)
{
    EnvGuard cacheDir("VCOMA_CACHE_DIR", nullptr);
    for (const char *truthy : {"1", "true", "YES", "on"}) {
        EnvGuard env("VCOMA_NO_CACHE", truthy);
        EXPECT_EQ(Runner::defaultCacheDir(), "") << truthy;
    }
    for (const char *falsy : {"0", "false", "no", "OFF", ""}) {
        EnvGuard env("VCOMA_NO_CACHE", falsy);
        EXPECT_EQ(Runner::defaultCacheDir(), ".vcoma_cache") << falsy;
    }
}

TEST(Runner, RunAllCompletesPastFailingConfig)
{
    // One config names a workload that does not exist, so its
    // simulation dies in makeWorkload; the sweep must still complete
    // every other config and report the failure.
    std::vector<ExperimentConfig> cfgs = tinyBatch();
    const std::size_t bad = 2;
    cfgs[bad].workload = "NO_SUCH_WORKLOAD";

    EnvGuard strict("VCOMA_STRICT", nullptr);
    EnvGuard env("VCOMA_JOBS", "4");
    Runner runner("");
    const auto results = runner.runAll(cfgs);

    ASSERT_EQ(results.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (i == bad) {
            EXPECT_EQ(results[i], nullptr);
        } else {
            ASSERT_NE(results[i], nullptr) << "config " << i;
            EXPECT_EQ(results[i]->workload, cfgs[i].workload);
        }
    }

    const auto failures = runner.failures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].key, cfgs[bad].key());
    EXPECT_NE(failures[0].error.find("NO_SUCH_WORKLOAD"),
              std::string::npos)
        << failures[0].error;
    EXPECT_NE(failures[0].error.find(schemeName(cfgs[bad].scheme)),
              std::string::npos)
        << failures[0].error;
}

TEST(Runner, RunAllMixedPoisonedBatchKeepsOrderAndRecords)
{
    // A batch mixing a FaultInjector-poisoned config with healthy
    // ones: results in submission order, the poisoned slot nullptr,
    // the FailedRun recorded, everything else served.
    std::vector<ExperimentConfig> cfgs;
    cfgs.push_back(tinyExperiment());
    ExperimentConfig bad = tinyExperiment();
    bad.workload = "STRIDE";
    bad.injectFault = "corrupt-am-state";
    cfgs.push_back(bad);
    ExperimentConfig seeded = tinyExperiment();
    seeded.seed = 7;
    cfgs.push_back(seeded);

    EnvGuard strict("VCOMA_STRICT", nullptr);
    Runner runner("");
    std::vector<bool> fresh;
    const auto results = runner.runAll(cfgs, &fresh);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_NE(results[0], nullptr);
    EXPECT_EQ(results[1], nullptr);
    EXPECT_NE(results[2], nullptr);
    EXPECT_EQ(fresh, (std::vector<bool>{true, false, true}))
        << "a failed slot is never reported as freshly simulated";

    const auto failures = runner.failures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].key, bad.key());
    EXPECT_NE(failures[0].error.find("corrupt-am-state"),
              std::string::npos)
        << failures[0].error;
}

TEST(Runner, RunAllReportsWhichSlotsSimulated)
{
    TempDir dir;
    std::vector<ExperimentConfig> cfgs = tinyBatch();
    // A duplicate of slot 1 at the end: simulated once, at slot 1.
    cfgs.push_back(cfgs[1]);
    EnvGuard env("VCOMA_JOBS", "4");

    std::vector<bool> fresh;
    {
        Runner cold(dir.path.string());
        cold.runAll(cfgs, &fresh);
        EXPECT_EQ(cold.executed(), cfgs.size() - 1);
    }
    ASSERT_EQ(fresh.size(), cfgs.size());
    for (std::size_t i = 0; i + 1 < cfgs.size(); ++i)
        EXPECT_TRUE(fresh[i]) << "cold slot " << i;
    EXPECT_FALSE(fresh.back()) << "in-batch duplicate re-reported";

    // A warm rerun (disk cache) and a memoised rerun simulate nothing.
    Runner warm(dir.path.string());
    warm.runAll(cfgs, &fresh);
    EXPECT_EQ(warm.executed(), 0u);
    EXPECT_EQ(fresh, std::vector<bool>(cfgs.size(), false));
    warm.runAll(cfgs, &fresh);
    EXPECT_EQ(fresh, std::vector<bool>(cfgs.size(), false));
}

TEST(Runner, RunRethrowsRecordedFailureWithoutReExecuting)
{
    ExperimentConfig bad = tinyExperiment();
    bad.workload = "NO_SUCH_WORKLOAD";

    EnvGuard strict("VCOMA_STRICT", nullptr);
    Runner runner("");
    EXPECT_EQ(runner.tryRun(bad), nullptr);
    const unsigned executedOnce = runner.executed();
    EXPECT_THROW(runner.run(bad), SimulationError);
    EXPECT_EQ(runner.tryRun(bad), nullptr);
    EXPECT_EQ(runner.executed(), executedOnce)
        << "a recorded failure must not re-execute";
}

TEST(Runner, StrictModeFailsFast)
{
    std::vector<ExperimentConfig> cfgs = tinyBatch();
    cfgs[0].workload = "NO_SUCH_WORKLOAD";

    EnvGuard strict("VCOMA_STRICT", "1");
    EnvGuard env("VCOMA_JOBS", "2");
    Runner runner("");
    EXPECT_THROW(runner.runAll(cfgs), SimulationError);
}

TEST(Runner, TryRunReturnsStatsOnSuccess)
{
    Runner runner("");
    const RunStats *stats = runner.tryRun(tinyExperiment());
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats, &runner.run(tinyExperiment()));
    EXPECT_TRUE(runner.failures().empty());
}

TEST(RunStats, DerivedMetrics)
{
    Runner runner("");
    const RunStats &stats = runner.run(tinyExperiment());
    // Miss rate: percentage of total refs.
    const double rate = stats.missRatePct(8, 0, true);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 100.0);
    // Misses per node consistent with the raw point.
    const auto &p = stats.shadowPoint(8, 0);
    EXPECT_DOUBLE_EQ(stats.missesPerNode(8, 0, false),
                     static_cast<double>(p.demandMisses) / 32.0);
    EXPECT_THROW(stats.shadowPoint(9999, 0), FatalError);
}

TEST(Experiments, TagOverheadMatchesPaperNumbers)
{
    // Section 6: 2-3 extra tag bytes => 1.5%-2.5% of AM for 128 B
    // blocks, 3%-4.5% for 64 B, 6%-9% for 32 B.
    EXPECT_NEAR(100 * virtualTagOverhead(128, 2), 1.56, 0.1);
    EXPECT_NEAR(100 * virtualTagOverhead(128, 3), 2.34, 0.2);
    EXPECT_NEAR(100 * virtualTagOverhead(64, 3), 4.69, 0.25);
    EXPECT_NEAR(100 * virtualTagOverhead(32, 2), 6.25, 0.1);
    EXPECT_NEAR(100 * virtualTagOverhead(32, 3), 9.38, 0.5);
    const Table t = tagOverheadTable();
    EXPECT_EQ(t.title().substr(0, 9), "Section 6");
}

TEST(Experiments, Table1ListsAllBenchmarks)
{
    const Table t = table1Benchmarks(0.05);
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    for (const auto &name : paperBenchmarks())
        EXPECT_NE(text.find(name), std::string::npos) << name;
}

namespace
{

/** Create @p path with @p bytes of filler and an mtime @p ageHours old. */
void
plantCacheFile(const std::filesystem::path &path, std::size_t bytes,
               int ageHours)
{
    std::ofstream out(path);
    out << std::string(bytes, 'x');
    out.close();
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now() -
                  std::chrono::hours(ageHours));
}

} // namespace

TEST(Runner, PruneCacheKeepsNewestEntriesWithinBudget)
{
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    // Four 1000-byte entries, oldest first.
    plantCacheFile(tmp.path / "a.txt", 1000, 4);
    plantCacheFile(tmp.path / "b.txt", 1000, 3);
    plantCacheFile(tmp.path / "c.txt", 1000, 2);
    plantCacheFile(tmp.path / "d.txt", 1000, 1);

    EXPECT_EQ(Runner::pruneCache(tmp.path.string(), 2000), 2u);
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "a.txt"));
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "b.txt"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "c.txt"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "d.txt"));
}

TEST(Runner, PruneCacheIsANoopUnderBudget)
{
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    plantCacheFile(tmp.path / "a.txt", 100, 2);
    plantCacheFile(tmp.path / "b.txt", 100, 1);
    EXPECT_EQ(Runner::pruneCache(tmp.path.string(), 200), 0u);
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "a.txt"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "b.txt"));
    // A missing directory is quietly nothing to prune.
    EXPECT_EQ(Runner::pruneCache((tmp.path / "absent").string(), 1),
              0u);
}

TEST(Runner, PruneCacheNeverTouchesForeignFiles)
{
    TempDir tmp;
    std::filesystem::create_directories(tmp.path / "subdir");
    plantCacheFile(tmp.path / "old.txt", 5000, 2);
    // Not cache entries: wrong extension, a staging temp (its
    // extension is the pid suffix, not .txt), and a nested file.
    plantCacheFile(tmp.path / "README.md", 100, 3);
    plantCacheFile(tmp.path / "entry.txt.tmp.1234", 100, 3);
    plantCacheFile(tmp.path / "subdir" / "nested.txt", 100, 3);

    EXPECT_EQ(Runner::pruneCache(tmp.path.string(), 1), 1u);
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "old.txt"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "README.md"));
    EXPECT_TRUE(
        std::filesystem::exists(tmp.path / "entry.txt.tmp.1234"));
    EXPECT_TRUE(
        std::filesystem::exists(tmp.path / "subdir" / "nested.txt"));
}

TEST(Runner, PruneCacheBreaksEqualMtimesByName)
{
    // Entries written within one batch sweep routinely share an mtime
    // (filesystem timestamps are coarse); the victim choice must then
    // depend on the file name only, never on directory iteration
    // order. Equal-mtime entries survive in name order: the earliest
    // names are kept, the latest pruned.
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    // Deliberately planted in scrambled order, then pinned to one
    // shared mtime (plantCacheFile's per-call "now" would differ by
    // microseconds and dodge the tie).
    const auto stamp = std::filesystem::file_time_type::clock::now() -
                       std::chrono::hours(1);
    for (const char *name : {"c.txt", "a.txt", "d.txt", "b.txt"}) {
        plantCacheFile(tmp.path / name, 1000, 1);
        std::filesystem::last_write_time(tmp.path / name, stamp);
    }

    EXPECT_EQ(Runner::pruneCache(tmp.path.string(), 2000), 2u);
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "a.txt"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "b.txt"));
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "c.txt"));
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "d.txt"));
}

TEST(Runner, PruneCacheMtimeStillBeatsName)
{
    // The name is only the tie-break: a strictly older entry is
    // pruned first however late its name sorts.
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    plantCacheFile(tmp.path / "z_old.txt", 1000, 5);
    plantCacheFile(tmp.path / "a_new.txt", 1000, 1);
    EXPECT_EQ(Runner::pruneCache(tmp.path.string(), 1000), 1u);
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "z_old.txt"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "a_new.txt"));
}

TEST(Runner, PruneTracesOnlyTouchesTraceFiles)
{
    // The trace dir shares the pruning policy but its own extension:
    // *.vctrace files are fair game, anything else is not.
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    plantCacheFile(tmp.path / "old.vctrace", 5000, 3);
    plantCacheFile(tmp.path / "new.vctrace", 5000, 1);
    plantCacheFile(tmp.path / "entry.txt", 100, 9);
    plantCacheFile(tmp.path / "trace.vctrace.tmp.1234", 100, 9);

    EXPECT_EQ(Runner::pruneTraces(tmp.path.string(), 5000), 1u);
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "old.vctrace"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "new.vctrace"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "entry.txt"));
    EXPECT_TRUE(std::filesystem::exists(
        tmp.path / "trace.vctrace.tmp.1234"));
}

TEST(Runner, PruneTracesBreaksEqualMtimesByName)
{
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    const auto stamp = std::filesystem::file_time_type::clock::now() -
                       std::chrono::hours(1);
    for (const char *name : {"beta.vctrace", "alpha.vctrace"}) {
        plantCacheFile(tmp.path / name, 1000, 1);
        std::filesystem::last_write_time(tmp.path / name, stamp);
    }
    EXPECT_EQ(Runner::pruneTraces(tmp.path.string(), 1000), 1u);
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "alpha.vctrace"));
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "beta.vctrace"));
}

TEST(Runner, ConstructionPrunesAnOversizedTraceDir)
{
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    plantCacheFile(tmp.path / "old.vctrace", 700 * 1024, 2);
    plantCacheFile(tmp.path / "new.vctrace", 700 * 1024, 1);

    EnvGuard dir("VCOMA_TRACE_DIR", tmp.path.string().c_str());
    EnvGuard budget("VCOMA_TRACE_MAX_MB", "1");
    Runner runner("");
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "old.vctrace"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "new.vctrace"));
}

TEST(Runner, EnvCacheMaxBytesParsesStrictly)
{
    constexpr std::uint64_t mib = 1024 * 1024;
    {
        EnvGuard env("VCOMA_CACHE_MAX_MB", nullptr);
        EXPECT_EQ(Runner::envCacheMaxBytes(), 0u);
    }
    {
        EnvGuard env("VCOMA_CACHE_MAX_MB", "7");
        EXPECT_EQ(Runner::envCacheMaxBytes(), 7 * mib);
    }
    {
        EnvGuard env("VCOMA_CACHE_MAX_MB", " 5");
        EXPECT_EQ(Runner::envCacheMaxBytes(), 5 * mib);
    }
    {   // Unbounded, with a warning: never guess a budget.
        EnvGuard env("VCOMA_CACHE_MAX_MB", "-3");
        EXPECT_EQ(Runner::envCacheMaxBytes(), 0u);
    }
    {
        EnvGuard env("VCOMA_CACHE_MAX_MB", "12cats");
        EXPECT_EQ(Runner::envCacheMaxBytes(), 0u);
    }
    {   // MB -> bytes saturates instead of wrapping.
        EnvGuard env("VCOMA_CACHE_MAX_MB", "99999999999999999999");
        EXPECT_EQ(Runner::envCacheMaxBytes(),
                  std::numeric_limits<std::uint64_t>::max());
    }
}

TEST(Runner, ConstructionPrunesAnOversizedCache)
{
    TempDir tmp;
    std::filesystem::create_directories(tmp.path);
    // Two entries totalling ~1.4 MiB against a 1 MB budget: the
    // Runner's constructor must evict the older one.
    plantCacheFile(tmp.path / "old.txt", 700 * 1024, 2);
    plantCacheFile(tmp.path / "new.txt", 700 * 1024, 1);

    EnvGuard env("VCOMA_CACHE_MAX_MB", "1");
    Runner runner(tmp.path.string());
    EXPECT_FALSE(std::filesystem::exists(tmp.path / "old.txt"));
    EXPECT_TRUE(std::filesystem::exists(tmp.path / "new.txt"));
}

TEST(Runner, StaleV3CacheFileIsRejected)
{
    // v3 entries were produced before the Rng::below() modulo-bias
    // fix, so their sheets no longer match what a fresh run computes.
    // The v4 magic bump must force a re-run instead of quietly mixing
    // pre-fix and post-fix results in one sweep.
    TempDir dir;
    Runner first(dir.path.string());
    first.run(tinyExperiment());
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        std::ofstream out(entry.path());
        out << "vcoma-cache-v3\nworkload UNIFORM\nend\n";
    }
    Runner second(dir.path.string());
    second.run(tinyExperiment());
    EXPECT_EQ(second.executed(), 1u) << "pre-RNG-fix file must re-run";
}

TEST(ExperimentConfig, KeySanitizesHostileWorkloadSpellings)
{
    // The key doubles as a cache file name, so TRACE: paths and
    // knobbed spellings (slashes, colons) must come out
    // filesystem-safe without different spellings colliding.
    ExperimentConfig trace = tinyExperiment();
    trace.workload = "TRACE:/var/traces/web.vctrace";
    ExperimentConfig other = trace;
    other.workload = "TRACE:/var/traces/db.vctrace";
    ExperimentConfig knobbed = tinyExperiment();
    knobbed.workload = "KVLOOKUP:skew=1.2,read=0.5";

    for (const auto *cfg : {&trace, &other, &knobbed}) {
        const std::string key = cfg->key();
        EXPECT_EQ(key.find('/'), std::string::npos) << key;
        EXPECT_EQ(key.find(':'), std::string::npos) << key;
    }
    EXPECT_NE(trace.key(), other.key())
        << "sanitisation must not collapse distinct spellings";

    // Plain benchmark names keep their historical keys byte for byte
    // (no hash suffix), so existing caches stay warm.
    ExperimentConfig plain = tinyExperiment();
    EXPECT_EQ(plain.key().rfind("UNIFORM-", 0), 0u) << plain.key();
}
