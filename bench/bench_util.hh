/**
 * @file
 * Shared scaffolding for the per-table/figure benchmark binaries:
 * a Runner wired to the environment ($VCOMA_SCALE problem scale,
 * $VCOMA_CACHE_DIR / $VCOMA_NO_CACHE result cache, $VCOMA_JOBS
 * parallel workers) and a banner.
 *
 * The banner deliberately never prints the effective job count:
 * bench output must stay byte-identical whatever VCOMA_JOBS is.
 */

#ifndef VCOMA_BENCH_BENCH_UTIL_HH
#define VCOMA_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.hh"
#include "harness/experiments.hh"
#include "harness/runner.hh"

namespace vcoma_bench
{

/**
 * Build provenance stamped into every report (set by the build
 * system from `git describe --always --dirty`; "unknown" outside a
 * git checkout). The dashboard keys its staleness rule on schema +
 * this stamp, so a report from an old build can be flagged instead
 * of misplotted.
 */
#ifndef VCOMA_GIT_DESCRIBE
#define VCOMA_GIT_DESCRIBE "unknown"
#endif

/**
 * Machine-readable run report: every bench binary writes
 * BENCH_<name>.json next to its working directory so CI can collect
 * wall time and executed-simulation counts without scraping the
 * (human-oriented) table output. Writing a side file never perturbs
 * stdout, so the byte-identity guarantee on table output holds.
 *
 * Report format versions: schema 1 had no provenance; schema 2 adds
 * the format version discipline itself plus the `git` build stamp.
 * Bump the schema whenever a field changes meaning, so downstream
 * consumers (tools/vcoma_sweep's dashboard, CI validators) can
 * refuse stale files.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {
    }

    /**
     * Write BENCH_<name>.json. Pass the Runner when the bench has one
     * so the report carries its executed/failure counts; pass nullptr
     * for benches without a Runner.
     */
    void
    finish(const vcoma::Runner *runner) const
    {
        const double wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::ofstream out("BENCH_" + name_ + ".json");
        if (!out)
            return;  // reports are best-effort; never fail the bench
        out << "{\"bench\":\"" << vcoma::jsonEscape(name_)
            << "\",\"schema\":2,\"git\":\""
            << vcoma::jsonEscape(VCOMA_GIT_DESCRIBE)
            << "\",\"wall_ms\":" << wallMs
            << ",\"executed\":" << (runner ? runner->executed() : 0)
            << ",\"failures\":"
            << (runner ? runner->failures().size() : 0) << "}\n";
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
};

/** Print the standard banner and return the configured scale. */
inline double
banner(const char *what)
{
    const double scale = vcoma::Runner::envScale();
    std::cout << "V-COMA reproduction - " << what << "\n"
              << "(problem scale " << scale
              << "; set VCOMA_SCALE to change, VCOMA_SCALE=16 "
                 "approaches the paper's data sets; VCOMA_JOBS "
                 "bounds the parallel workers)\n\n";
    return scale;
}

/**
 * Output sink: renders tables as aligned text, or as CSV when the
 * binary is invoked with --csv.
 */
class TableSink
{
  public:
    TableSink(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            if (std::string_view(argv[i]) == "--csv")
                csv_ = true;
        }
    }

    void
    operator()(const vcoma::Table &table) const
    {
        if (csv_)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
    }

    bool csv() const { return csv_; }

  private:
    bool csv_ = false;
};

inline void
footer(const vcoma::Runner &runner)
{
    // Only mention failures when there are any: with a clean sweep
    // the output must stay byte-identical to older builds.
    const auto failures = runner.failures();
    if (!failures.empty()) {
        std::cout << "[" << failures.size()
                  << " configuration(s) failed to simulate; their "
                     "table cells read n/a*. Set VCOMA_STRICT=1 to "
                     "fail fast instead.]\n";
        for (const auto &f : failures)
            std::cout << "  " << f.error << "\n";
    }
    std::cout << "[" << runner.executed()
              << " simulation(s) executed; the rest served from the "
                 "result cache]\n";
}

} // namespace vcoma_bench

#endif // VCOMA_BENCH_BENCH_UTIL_HH
