/**
 * @file
 * Host-cost benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--references FILE] [--work-dir DIR]
 *   perfbench --emit-references --workload W --seed N
 *   perfbench --describe --workload W
 *
 * An untraced run repeats passes over workload W for S seconds and
 * prints every end-to-end metric; a traced run prints the per-layer
 * split instead. Either way the last stdout line is one JSON object
 * {correct, attempted, failed, metrics}. --seed picks the workload
 * seed among those the reference file holds digests for. The exit
 * code is non-zero when any output differs from its reference.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "passes.hh"
#include "translation/scheme.hh"
#include "traced.hh"
#include "util.hh"

extern char **environ;

namespace perfbench
{
namespace
{

struct Args
{
    std::string workload;
    long long seed = 1;
    double seconds = 10;
    bool trace = false;
    bool emit = false;
    bool describe = false;
    std::string references = "perfbench/references.txt";
    std::string workDir = ".bench_build/work";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--references FILE] [--work-dir DIR]\n"
                 "       perfbench --emit-references --workload W --seed N\n"
                 "       perfbench --describe --workload W\n";
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--emit-references" || flag == "--describe") {
            (flag == "--describe" ? a.describe : a.emit) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoll(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--references")
                a.references = v;
            else if (flag == "--work-dir")
                a.workDir = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/**
 * A clean simulator environment: no VCOMA_* knob of the caller's may
 * shape the runs; the grid's pool gets gridJobs() workers.
 */
void
resetEnvironment()
{
    std::vector<std::string> knobs;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "VCOMA_", 6) == 0)
            knobs.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &k : knobs)
        unsetenv(k.c_str());
    setenv("VCOMA_JOBS", std::to_string(gridJobs()).c_str(), 1);
}

/** Map a --seed value onto the workload seeds 1..n with references. */
unsigned
workloadSeed(long long seed, unsigned n)
{
    if (n == 0)
        return 1;
    const long long m = ((seed - 1) % n + n) % n;
    return static_cast<unsigned>(m + 1);
}

void
describe(std::ostream &os, const std::string &name,
         const std::vector<double> &v, const std::string &unit)
{
    const auto [q1, q3] = quartiles(v);
    os << "  " << name << ": median " << median(v) << ' ' << unit
       << " (q1 " << q1 << ", q3 " << q3 << ", n=" << v.size() << ")\n";
}

/** Number of set-up samples a run's setup_s is the median of. */
constexpr unsigned setupSamples = 5;

/** Recordings of dc-replay's traces per run; each is several seconds. */
constexpr unsigned traceRecordings = 3;

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / v.size();
}

/**
 * The host's speed over the run. Every time metric of the result line
 * is a measured time divided by the slowdown printed here.
 */
void
describeSpeed(std::ostream &os, const HostSpeed &speed)
{
    describe(os, "host probe", speed.probes(), "s");
    os << "  host slowdown: " << speed.slowdown()
       << " (mean probe / " << probeReferenceSeconds
       << " s); times below are in reference-host seconds\n";
}

/** Print @p def's definition as one JSON object. */
void
printDefinition(const WorkloadDef &def)
{
    const bool grid = def.source == Source::Grid;
    const WorkloadDef shown = grid ? gridSample() : def;
    std::set<std::string> schemes;
    std::cout << "{\"name\": \"" << def.name << "\", \"configs\": [";
    if (grid) {
        std::cout << "\"table2MissRates\", \"figure8MissCurves\", "
                     "\"table4StallShare\", \"figure10ExecTime\"";
        for (const vcoma::ExperimentConfig &cfg : gridConfigs())
            schemes.insert(vcoma::schemeName(cfg.scheme));
    }
    for (std::size_t i = 0; !grid && i < def.jobs.size(); ++i) {
        std::cout << (i ? ", " : "") << '"' << def.jobs[i].label << '"';
        schemes.insert(vcoma::schemeName(def.jobs[i].cfg.scheme));
    }
    std::cout << "], \"schemes\": [";
    bool first = true;
    for (const std::string &s : schemes) {
        std::cout << (first ? "" : ", ") << '"' << s << '"';
        first = false;
    }
    const vcoma::ExperimentConfig &cfg = shown.jobs.front().cfg;
    std::cout << "], \"scale\": " << cfg.scale << ", \"nodes\": "
              << cfg.nodes << ", \"source\": \""
              << (grid ? "harness" : def.source == Source::Replay
                                         ? "packed replay"
                                         : "live generation")
              << "\", \"jobs\": " << (grid ? gridJobs() : 1)
              << ", \"loop\": \"closed\"}\n";
}

Outcome
runDirect(const WorkloadDef &def, unsigned seed, const Args &args,
          const References &refs)
{
    Outcome out;
    OutputCheck check(refs, seed, def.name, args.emit);
    std::optional<TraceSet> traces;
    std::vector<double> record;
    HostSpeed speed;
    if (def.source == Source::Replay) {
        traces.emplace(args.workDir);
        const unsigned reps = args.emit ? 1 : traceRecordings;
        for (unsigned i = 0; i < reps; ++i) {
            const CpuPin pin(i);
            record.push_back(traces->record(def));
            speed.sample();
        }
    }
    const TraceSet *ts = traces ? &*traces : nullptr;

    std::vector<PassResult> passes;
    const double start = wallSeconds();
    do {
        passes.push_back(runDirectPass(def, passes.size(), ts, check,
                                       nullptr, nullptr, &speed));
    } while (!args.emit &&
             anotherPass(start, passes.size(), args.seconds));

    std::vector<double> prep, cpu, wall;
    for (const PassResult &p : passes) {
        prep.push_back(p.setupSeconds);
        cpu.push_back(p.cpuSeconds);
        wall.push_back(p.wallSeconds);
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    if (args.emit)
        return out;
    while (prep.size() < setupSamples) {
        const double t0 = wallSeconds();
        for (const Job &job : def.jobs)
            prepare(job, ts, nullptr);
        prep.push_back(wallSeconds() - t0);
    }
    const double slow = speed.slowdown();
    const double cpuPass = mean(cpu) / slow;
    const double wallPass = mean(wall) / slow;
    const double setup = (median(record) + median(prep)) / slow;

    std::cout << def.name << ": " << passes.size() << " pass(es) of "
              << def.jobs.size() << " config(s), workload seed " << seed
              << '\n';
    describe(std::cout, "pass CPU", cpu, "s");
    describe(std::cout, "pass wall", wall, "s");
    describe(std::cout, "setup samples", prep, "s");
    if (!record.empty())
        describe(std::cout, "trace recording", record, "s");
    describeSpeed(std::cout, speed);

    MetricSheet &m = out.metrics;
    m.set("refs_per_s", cpuPass > 0 ? passes.front().refs / cpuPass : 0.0,
          "refs/s");
    m.set("cpu_s", cpuPass, "s");
    m.set("wall_s", wallPass, "s");
    m.set("setup_s", setup, "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    m.set("sims_executed", static_cast<double>(def.jobs.size()), "count");
    return out;
}

Outcome
runGrid(const Args &args, const References &refs)
{
    Outcome out;
    OutputCheck check(refs, 0, "paper-grid", args.emit);
    const std::string dir = args.workDir + "/grid-cache";
    std::vector<GridResult> passes;
    HostSpeed speed;
    // The pool's jobs run on every CPU, so each pass is bracketed by a
    // probe on each.
    const auto probeAll = [&speed] {
        for (unsigned slot = 0; slot < gridJobs(); ++slot) {
            const CpuPin pin(slot);
            speed.sample();
        }
    };
    std::vector<double> setup;
    if (!args.emit) {
        const WorkloadDef sample = gridSample();
        while (setup.size() < 4 * setupSamples)
            setup.push_back(gridSetup(dir, sample));
    }
    const double start = wallSeconds();
    do {
        if (!args.emit)
            probeAll();
        passes.push_back(runGridPass(dir, check));
    } while (!args.emit &&
             anotherPass(start, passes.size(), args.seconds));

    std::vector<double> cpu, wall, warm;
    for (const GridResult &g : passes) {
        cpu.push_back(g.cpuSeconds);
        wall.push_back(g.wallSeconds);
        warm.push_back(g.warmSeconds);
        out.attempted += g.attempted;
        out.failed += g.failed;
        if (g.executed != passes.front().executed) {
            std::cerr << "perfbench: cold passes executed "
                      << passes.front().executed << " and " << g.executed
                      << " simulations\n";
            ++out.failed;
        }
    }
    if (args.emit) {
        // The traced run's layer sample is checked against these too.
        const PassResult p = runDirectPass(gridSample(), 0, nullptr, check);
        out.attempted += p.attempted;
        out.failed += p.failed;
        return out;
    }
    probeAll();
    std::filesystem::remove_all(dir);

    std::cout << "paper-grid: " << passes.size()
              << " cold+warm regeneration(s), " << gridJobs()
              << " pool job(s), " << passes.front().executed
              << " simulations per cold pass, "
              << passes.front().requested << " configs requested\n";
    describe(std::cout, "cold CPU (cpu_s)", cpu, "s");
    describe(std::cout, "cold wall (wall_s)", wall, "s");
    describe(std::cout, "warm_s", warm, "s");
    describe(std::cout, "setup samples", setup, "s");
    describeSpeed(std::cout, speed);

    // Each pass in reference-host seconds by the probes that bracket
    // it: the pool keeps every CPU busy, so no probe can run beside it.
    std::vector<double> cpuRef, wallRef;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const std::size_t probes = gridJobs();
        const double slow = speed.slowdown(i * probes, (i + 2) * probes);
        cpuRef.push_back(cpu[i] / slow);
        wallRef.push_back(wall[i] / slow);
    }
    const double cpuPass = mean(cpuRef);
    MetricSheet &m = out.metrics;
    m.set("refs_per_s", cpuPass > 0 ? passes.front().refs / cpuPass : 0.0,
          "refs/s");
    m.set("cpu_s", cpuPass, "s");
    m.set("wall_s", mean(wallRef), "s");
    m.set("setup_s", median(setup) / speed.slowdown(), "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    m.set("sims_executed", passes.front().executed, "count");
    return out;
}

int
run(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    resetEnvironment();
    const References refs(args.references);
    if (!args.emit && refs.seeds() == 0) {
        std::cerr << "perfbench: no reference digests in "
                  << args.references << '\n';
        return 2;
    }
    const unsigned seed = args.emit ? static_cast<unsigned>(args.seed)
                                    : workloadSeed(args.seed, refs.seeds());
    std::filesystem::create_directories(args.workDir);

    WorkloadDef def;
    try {
        def = defineWorkload(args.workload, seed);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }

    if (args.describe) {
        printDefinition(def);
        return 0;
    }
    Outcome out;
    if (args.trace) {
        const std::string spans = args.workDir + "/spans-" + def.name +
                                  "-seed" + std::to_string(seed) + ".jsonl";
        out = runTraced(def, seed, refs, args.workDir, spans);
        std::cout << "spans written to " << spans << '\n';
    } else if (def.source == Source::Grid) {
        out = runGrid(args, refs);
    } else {
        out = runDirect(def, seed, args, refs);
    }
    if (args.emit)
        return out.failed ? 1 : 0;

    const bool correct = out.failed == 0;
    std::cout << (args.trace ? "per-layer" : "end-to-end") << " metrics, "
              << def.name << ", workload seed " << seed << ", build "
              << PERFBENCH_BUILD_TYPE << ":\n";
    out.metrics.print(std::cout);
    out.metrics.printResult(std::cout, correct, out.attempted, out.failed);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
