/**
 * @file
 * Shared helpers of the host-cost benchmark: host clocks, the
 * host-speed probe, order statistics, output digests, the
 * reference-digest table, the metric sheet printed at the end of a
 * run, and the in-memory span recorder of traced runs.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <sched.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.hh"
#include "sim/run_stats.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** CPU seconds consumed by every thread of this process. */
double processCpuSeconds();

/** Monotonic wall-clock seconds. */
double wallSeconds();

/** Peak resident set of this process in MB. */
double peakRssMb();

double median(std::vector<double> v);

/** First and third quartile (Python statistics.quantiles, n=4). */
std::pair<double, double> quartiles(std::vector<double> v);

/** FNV-1a 64 of @p text as 16 hex digits. */
std::string digest(std::string_view text);

/** The sheet's writeRunStatsJson output. */
std::string statsJson(const vcoma::RunStats &stats);

/** Machine config of @p cfg, built as the Runner builds it. */
vcoma::MachineConfig machineConfig(const vcoma::ExperimentConfig &cfg);

/** Workload parameters of @p cfg, as the Runner passes them. */
vcoma::WorkloadParams workloadParams(const vcoma::ExperimentConfig &cfg);

/**
 * Reference digests, one line per output:
 * `<workload seed> <workload> <label> <digest>`; seed 0 marks an
 * output that does not depend on the workload seed.
 */
class References
{
  public:
    /** Load @p path; a missing file leaves the table empty. */
    explicit References(const std::string &path);

    /** Highest workload seed with digests (0 when empty). */
    unsigned seeds() const { return seeds_; }

    /** Digest of (@p seed, @p workload, @p label), or nullptr. */
    const std::string *find(unsigned seed, const std::string &workload,
                            const std::string &label) const;

  private:
    std::map<std::string, std::string> digests_;
    unsigned seeds_ = 0;
};

/**
 * Checks produced outputs against the references. In emit mode it
 * prints reference lines instead of checking.
 */
class OutputCheck
{
  public:
    /** @p seed 0 checks outputs that do not depend on the seed. */
    OutputCheck(const References &refs, unsigned seed,
                std::string workload, bool emit)
        : refs_(refs), seed_(seed), workload_(std::move(workload)),
          emit_(emit)
    {
    }

    /** Check one output; @return true when it matches. */
    bool check(const std::string &label, std::string_view text);

  private:
    const References &refs_;
    unsigned seed_;
    std::string workload_;
    bool emit_;
    std::set<std::string> emitted_;
};

/**
 * Pins the calling thread to one CPU of the process's affinity set
 * for its lifetime, then restores the set. Serial workloads rotate
 * their configs over the CPUs: on a shared host each CPU has slow
 * spells of its own, and a pass spread over all of them is moved
 * less by any one.
 */
class CpuPin
{
  public:
    /** Pin to the @p slot-th allowed CPU, modulo their number. */
    explicit CpuPin(std::size_t slot);
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

/**
 * One probe of the host's speed: hash-map updates over 200k keys, then
 * a pointer chase around a 4 MB ring. It uses nothing of the simulator,
 * so a change to the simulator never moves its cost; the load that
 * other tenants put on a shared host moves it as it moves the
 * simulator's. @return the CPU seconds it took.
 */
double hostProbe();

/**
 * CPU seconds hostProbe() took on the host this benchmark was defined
 * on (4 vCPUs of an Intel Xeon VM), near its quietest.
 */
inline constexpr double probeReferenceSeconds = 0.06;

/**
 * The host's speed over one run, from probes taken between the run's
 * timed simulations, so that they see the same load as those do.
 */
class HostSpeed
{
  public:
    /** Probe once, on the calling thread's CPU. */
    void sample() { probes_.push_back(hostProbe()); }

    /**
     * Mean probe time over probeReferenceSeconds: how much slower the
     * host ran than the reference. Times divided by it are in
     * reference-host seconds.
     */
    double slowdown() const { return slowdown(0, probes_.size()); }

    /** The same over probes [@p first, @p last) only. */
    double slowdown(std::size_t first, std::size_t last) const;

    const std::vector<double> &probes() const { return probes_; }

  private:
    std::vector<double> probes_;
};

/** Ordered name -> (value, unit) sheet of one run's metrics. */
class MetricSheet
{
  public:
    /** Append a metric; each name is set once. */
    void set(const std::string &name, double value, const std::string &unit);

    /** Human-readable table, one metric per line. */
    void print(std::ostream &os) const;

    /** The final result line the benchmark contract asks for. */
    void printResult(std::ostream &os, bool correct,
                     std::uint64_t attempted, std::uint64_t failed) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/** What one run reports: its metrics and its operation counts. */
struct Outcome
{
    MetricSheet metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Span recorder of traced runs: each span has a name, start, end,
 * parent span and config id. Spans stay in memory until write().
 */
class Tracer
{
  public:
    Tracer() : origin_(wallSeconds()) {}

    /** RAII span: open on construction, close on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *t, std::string name, std::string config);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the span opened. */
        double elapsed() const;

      private:
        Tracer *t_;
        std::size_t idx_ = 0;
    };

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;

    /** Write the spans as JSON lines; @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::string config;
        double start = 0;
        double end = 0;
        long parent = -1;
    };

    double origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
