/**
 * @file
 * The experiment runner: builds a machine and a workload from an
 * ExperimentConfig, runs the simulation, and caches the resulting
 * stats sheet both in memory and on disk so that the benchmark
 * binaries (one per paper table/figure) can share simulation runs.
 *
 * Batches submitted through runAll() execute concurrently on up to
 * $VCOMA_JOBS worker threads. Each simulation is single-threaded and
 * fully deterministic, so a parallel batch is bit-identical to the
 * same configs run serially; only the wall clock changes.
 */

#ifndef VCOMA_HARNESS_RUNNER_HH
#define VCOMA_HARNESS_RUNNER_HH

#include <atomic>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/run_stats.hh"

namespace vcoma
{

/**
 * Thrown when a simulation fails: wraps whatever escaped the machine
 * (a ProtectionFault, PanicError, FatalError, WatchdogError, ...)
 * with the workload, scheme and config key so sweep failure reports
 * are actionable.
 */
class SimulationError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Everything that identifies one simulation run. */
struct ExperimentConfig
{
    std::string workload = "RADIX";
    Scheme scheme = Scheme::VCOMA;
    /** Configured (timed) TLB/DLB geometry. */
    unsigned tlbEntries = 8;
    unsigned tlbAssoc = 0;
    /** Charge translation-miss penalties on the critical path. */
    bool timedTranslation = false;
    /** L2-TLB: whether SLC write-backs consult the TLB. */
    bool writebacksAccessTlb = true;
    /** RAYTRACE layout variant (Figure 10's DLB/8/V2). */
    bool raytraceV2 = false;
    unsigned nodes = 32;
    double scale = 1.0;
    std::uint64_t seed = 1;
    /** Attraction-memory associativity (ablations; paper uses 4). */
    unsigned amAssoc = 4;
    /** TLB/DLB miss service time (ablations; paper uses 40). */
    Cycles xlatPenalty = 40;
    /**
     * Name of a FaultClass to inject after the run (see
     * check/fault_injector.hh), empty for a normal simulation. A
     * poisoned config deterministically corrupts coherence state and
     * fails its invariant sweep, so failure paths (graceful runAll
     * sweeps, vcoma_batch's placeholder lines) can be exercised end
     * to end. Appears in key() only when set, so ordinary cache
     * keys are unchanged.
     */
    std::string injectFault;

    /** Stable cache key. */
    std::string key() const;
};

/** Record of one config that failed to simulate (graceful sweeps). */
struct FailedRun
{
    ExperimentConfig config;
    /** The config's cache key (its "hash"). */
    std::string key;
    /** Exception text, with workload/scheme/config context. */
    std::string error;
};

/**
 * Runs experiments with in-memory + on-disk caching.
 *
 * Thread safety: run() and runAll() may be called from any thread;
 * the memo map and execution counter are internally synchronised.
 * Returned references stay valid for the Runner's lifetime (the memo
 * is a node-based map). The disk cache is also safe across processes:
 * writers stage into unique temp files and publish with an atomic
 * rename, so concurrent bench binaries sharing one cache directory
 * never observe partial entries.
 */
class Runner
{
  public:
    /**
     * @param cacheDir directory for cached results; empty string
     *        disables the disk cache. Defaults to $VCOMA_CACHE_DIR or
     *        ".vcoma_cache".
     */
    explicit Runner(std::string cacheDir = defaultCacheDir());

    /**
     * Run (or recall) the experiment. Throws SimulationError if the
     * simulation fails (including a failure recorded by an earlier
     * run/tryRun/runAll of the same config; those do not re-execute).
     */
    const RunStats &run(const ExperimentConfig &cfg);

    /**
     * Like run(), but returns nullptr instead of throwing when the
     * simulation fails; the failure is recorded in failures().
     */
    const RunStats *tryRun(const ExperimentConfig &cfg);

    /**
     * Run a batch: configs not already memoised or on disk execute
     * concurrently on up to min($VCOMA_JOBS, batch) worker threads;
     * duplicates within the batch run once. Results come back in
     * submission order and are bit-identical to serial execution.
     *
     * A config whose simulation fails does not abort the sweep: its
     * slot comes back as nullptr, the failure is recorded in
     * failures(), and every other config still runs. Set
     * $VCOMA_STRICT=1 to restore fail-fast (the first failure is
     * rethrown once the pool drains).
     *
     * When @p freshlyExecuted is non-null it is resized to the batch
     * and slot i is set iff this call simulated config i (a miss in
     * both the memo and the disk cache). A config repeated within
     * the batch is fresh only at its first slot; a failed one never.
     */
    std::vector<const RunStats *>
    runAll(std::span<const ExperimentConfig> cfgs,
           std::vector<bool> *freshlyExecuted = nullptr);

    /** Every failed config recorded so far, in key order. */
    std::vector<FailedRun> failures() const;

    /** Recorded failure text for @p key, or empty when none. */
    std::string failureMessage(const std::string &key) const;

    /** Problem scale from $VCOMA_SCALE (default 1.0). */
    static double envScale();

    /** $VCOMA_CACHE_DIR, or ".vcoma_cache"; truthy $VCOMA_NO_CACHE -> "". */
    static std::string defaultCacheDir();

    /** runAll() worker count: $VCOMA_JOBS, or one per hardware thread. */
    static unsigned envJobs();

    /** Disk-cache budget from $VCOMA_CACHE_MAX_MB in bytes; 0 = unlimited. */
    static std::uint64_t envCacheMaxBytes();

    /**
     * Reference-trace directory from $VCOMA_TRACE_DIR; empty string
     * (the default) disables record/replay. When set, the first
     * execution of a config records its packed memref trace under
     * `<dir>/<cache key>.vctrace`, and later executions of the same
     * config replay the trace instead of re-running the workload
     * algorithm (see DESIGN.md "Packed memref traces").
     */
    static std::string envTraceDir();

    /** Trace-dir budget from $VCOMA_TRACE_MAX_MB in bytes; 0 = unlimited. */
    static std::uint64_t envTraceMaxBytes();

    /**
     * Delete the oldest-mtime cache entries (*.txt files) in @p dir
     * until the survivors fit in @p maxBytes. Files that are not
     * cache entries — subdirectories, in-flight *.tmp.* stagings,
     * anything a user dropped in the directory — are never touched.
     * Ties on mtime (common within one batch sweep: filesystem
     * timestamps are coarse) break deterministically by file name,
     * oldest-name-last, so pruning never depends on directory
     * iteration order. Runs at Runner construction when
     * $VCOMA_CACHE_MAX_MB is set.
     * @return the number of entries removed.
     */
    static unsigned pruneCache(const std::string &dir,
                               std::uint64_t maxBytes);

    /**
     * Same policy over recorded traces (*.vctrace files): oldest
     * mtime first, name as the deterministic tie-break. Runs at
     * Runner construction when $VCOMA_TRACE_DIR and
     * $VCOMA_TRACE_MAX_MB are both set.
     */
    static unsigned pruneTraces(const std::string &dir,
                                std::uint64_t maxBytes);

    /** Simulations actually executed (not served from cache). */
    unsigned executed() const { return executed_.load(); }

  private:
    RunStats execute(const ExperimentConfig &cfg);
    std::string cachePath(const ExperimentConfig &cfg) const;
    bool load(const std::string &path, RunStats &stats) const;
    void store(const std::string &path, const RunStats &stats) const;
    bool storeOnce(const std::string &path, const RunStats &stats,
                   std::string &error) const;
    /** Execute, store to disk, and memoise one cache-missing config. */
    void executeAndMemoise(const ExperimentConfig &cfg,
                           const std::string &key);
    void recordFailure(const ExperimentConfig &cfg,
                       const std::string &key, const std::string &error);

    std::string cacheDir_;
    /** $VCOMA_TRACE_DIR at construction; empty = record/replay off. */
    std::string traceDir_;
    mutable std::mutex mutex_; ///< guards memo_ and failed_
    std::map<std::string, RunStats> memo_;
    std::map<std::string, FailedRun> failed_;
    std::atomic<unsigned> executed_{0};
};

/** The six paper benchmarks in Table 2's row order. */
const std::vector<std::string> &paperBenchmarks();

/** The synthetic datacenter kernels (KVLOOKUP, GRAPH, STREAMJOIN). */
const std::vector<std::string> &datacenterBenchmarks();

} // namespace vcoma

#endif // VCOMA_HARNESS_RUNNER_HH
