#include "passes.hh"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness/experiments.hh"
#include "translation/scheme.hh"
#include "workloads/replay.hh"

namespace perfbench
{

using vcoma::ExperimentConfig;
using vcoma::Scheme;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "splash-l0", "splash-vcoma", "dc-replay", "paper-grid"};
    return names;
}

namespace
{

/** Untimed (Table 2-style) config: 8 entries, fully associative. */
Job
untimedJob(const std::string &workload, Scheme scheme, unsigned seed)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.scheme = scheme;
    cfg.tlbEntries = 8;
    cfg.tlbAssoc = 0;
    cfg.timedTranslation = false;
    cfg.nodes = 32;
    cfg.scale = 1.0;
    cfg.seed = seed;
    return {workload + "/" + vcoma::schemeName(scheme), cfg};
}

} // namespace

WorkloadDef
defineWorkload(const std::string &name, unsigned seed)
{
    WorkloadDef def;
    def.name = name;
    if (name == "splash-l0" || name == "splash-vcoma") {
        const Scheme s = name == "splash-l0" ? Scheme::L0 : Scheme::VCOMA;
        for (const auto &bench : vcoma::paperBenchmarks())
            def.jobs.push_back(untimedJob(bench, s, seed));
    } else if (name == "dc-replay") {
        def.source = Source::Replay;
        for (const char *w : {"KVLOOKUP", "KVLOOKUP:read=0.5", "GRAPH"})
            for (Scheme s : {Scheme::VCOMA, Scheme::L3})
                def.jobs.push_back(untimedJob(w, s, seed));
    } else if (name == "paper-grid") {
        def.source = Source::Grid;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return def;
}

/** Table 4's 8-entry configs: the paper-grid's sample for layer costs. */
WorkloadDef
gridSample()
{
    WorkloadDef def;
    def.name = "paper-grid";
    for (const vcoma::ExperimentConfig &cfg :
         vcoma::table4Configs(gridScale)) {
        if (cfg.tlbEntries == 8)
            def.jobs.push_back({cfg.workload + "/" +
                                    vcoma::schemeName(cfg.scheme) +
                                    "/timed8",
                                cfg});
    }
    return def;
}

TraceSet::~TraceSet()
{
    std::error_code ec;
    for (const auto &[spelling, path] : paths_)
        std::filesystem::remove(path, ec);
}

double
TraceSet::record(const WorkloadDef &def)
{
    const double t0 = wallSeconds();
    std::set<std::string> done;
    for (const Job &job : def.jobs) {
        if (!done.insert(job.cfg.workload).second)
            continue;
        const std::string path =
            dir_ + "/trace-" + std::to_string(done.size()) + ".vctrace";
        vcoma::Machine machine(machineConfig(job.cfg));
        auto live = vcoma::makeWorkload(job.cfg.workload,
                                        workloadParams(job.cfg));
        vcoma::RecordingWorkload rec(*live, path, job.cfg.key());
        machine.run(rec);
        if (!rec.finalize())
            throw std::runtime_error("could not publish trace " + path);
        paths_[job.cfg.workload] = path;
    }
    return wallSeconds() - t0;
}

const std::string &
TraceSet::path(const std::string &spelling) const
{
    auto it = paths_.find(spelling);
    if (it == paths_.end())
        throw std::logic_error("no trace recorded for " + spelling);
    return it->second;
}

Prepared
prepare(const Job &job, const TraceSet *traces, Tracer *tracer)
{
    Prepared p;
    {
        Tracer::Scope span(tracer, "workloads.open", job.label);
        if (traces) {
            p.workload = std::make_unique<vcoma::ReplayWorkload>(
                traces->path(job.cfg.workload));
        } else {
            p.workload = vcoma::makeWorkload(job.cfg.workload,
                                             workloadParams(job.cfg));
        }
    }
    Tracer::Scope span(tracer, "translation.build", job.label);
    p.machine = std::make_unique<vcoma::Machine>(machineConfig(job.cfg));
    return p;
}

PassResult
runDirectPass(const WorkloadDef &def, std::size_t index,
              const TraceSet *traces, OutputCheck &check, Tracer *tracer,
              JobProbe *probe, HostSpeed *speed)
{
    PassResult r;
    for (std::size_t j = 0; j < def.jobs.size(); ++j) {
        const Job &job = def.jobs[j];
        const CpuPin pin(j + index);
        ++r.attempted;
        try {
            const double s0 = wallSeconds();
            Prepared p = prepare(job, traces, tracer);
            r.setupSeconds += wallSeconds() - s0;

            vcoma::Workload &w =
                probe ? probe->wrap(*p.workload, job) : *p.workload;
            const double c0 = processCpuSeconds();
            const double w0 = wallSeconds();
            vcoma::RunStats stats;
            {
                Tracer::Scope span(tracer, "sim.run", job.label);
                stats = p.machine->run(w);
            }
            const double runWall = wallSeconds() - w0;
            const double runCpu = processCpuSeconds() - c0;
            r.cpuSeconds += runCpu;
            r.wallSeconds += runWall;
            r.jobRunSeconds.push_back(runWall);
            r.refs += stats.totalRefs();

            std::string json;
            {
                Tracer::Scope span(tracer, "common.stats_json", job.label);
                json = statsJson(stats);
            }
            if (!check.check(job.label, json))
                ++r.failed;
            if (probe)
                probe->done(stats, runWall);
            r.sheets.push_back(std::move(stats));
        } catch (const std::exception &e) {
            std::cerr << "perfbench: " << job.label << " failed: "
                      << e.what() << '\n';
            ++r.failed;
            r.sheets.emplace_back();
            r.jobRunSeconds.push_back(0.0);
            if (probe)
                probe->done(r.sheets.back(), 0.0);
        }
        // After the job's Machine is freed, so the probe's memory
        // reuses the simulator's and leaves the peak resident set alone.
        if (speed)
            speed->sample();
    }
    return r;
}

double
reemitSeconds(const std::vector<vcoma::RunStats> &sheets, unsigned reps)
{
    std::vector<double> times;
    std::size_t sink = 0;
    for (unsigned i = 0; i < reps; ++i) {
        const double t0 = wallSeconds();
        for (const vcoma::RunStats &s : sheets)
            sink += digest(statsJson(s)).size();
        times.push_back(wallSeconds() - t0);
    }
    if (sink == 0 && !sheets.empty())
        throw std::logic_error("empty digests");
    return median(times);
}

bool
anotherPass(double start, std::size_t passes, double seconds)
{
    if (passes < minPasses)
        return true;
    const double elapsed = wallSeconds() - start;
    return elapsed + elapsed / passes <= seconds;
}

unsigned
gridJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

namespace
{

using Artefacts = std::vector<std::pair<std::string, std::string>>;

std::string
text(const vcoma::Table &t)
{
    std::ostringstream os;
    t.print(os);
    return os.str();
}

void
addAll(Artefacts &out, const std::string &stem,
       const std::vector<vcoma::Table> &tables)
{
    for (std::size_t i = 0; i < tables.size(); ++i)
        out.push_back({stem + "." + std::to_string(i), text(tables[i])});
}

/** Table 2, Fig. 8, Table 4, Fig. 10 as (label, text) pairs. */
Artefacts
regenerate(vcoma::Runner &runner, Tracer *tracer)
{
    Artefacts out;
    {
        Tracer::Scope span(tracer, "harness.table2", "");
        out.push_back(
            {"table2", text(vcoma::table2MissRates(runner, gridScale))});
    }
    {
        Tracer::Scope span(tracer, "harness.fig8", "");
        addAll(out, "fig8", vcoma::figure8MissCurves(runner, gridScale));
    }
    {
        Tracer::Scope span(tracer, "harness.table4", "");
        out.push_back(
            {"table4", text(vcoma::table4StallShare(runner, gridScale))});
    }
    {
        Tracer::Scope span(tracer, "harness.fig10", "");
        addAll(out, "fig10", vcoma::figure10ExecTime(runner, gridScale));
    }
    return out;
}

} // namespace

std::vector<ExperimentConfig>
gridConfigs()
{
    std::vector<ExperimentConfig> all;
    for (auto list : {vcoma::missStudySweepConfigs(gridScale),  // Table 2
                      vcoma::missStudySweepConfigs(gridScale),  // Fig. 8
                      vcoma::table4Configs(gridScale),
                      vcoma::figure10Configs(gridScale)})
        all.insert(all.end(), list.begin(), list.end());
    return all;
}

double
gridSetup(const std::string &dir, const WorkloadDef &sample)
{
    const double t0 = wallSeconds();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    vcoma::Runner runner(dir);
    for (const Job &job : sample.jobs)
        prepare(job, nullptr, nullptr);
    return wallSeconds() - t0;
}

GridResult
runGridPass(const std::string &dir, OutputCheck &check, Tracer *tracer)
{
    GridResult g;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto cold = std::make_unique<vcoma::Runner>(dir);

    Artefacts coldOut;
    {
        Tracer::Scope span(tracer, "harness.cold", "");
        const double c0 = processCpuSeconds();
        const double w0 = wallSeconds();
        coldOut = regenerate(*cold, tracer);
        g.wallSeconds = wallSeconds() - w0;
        g.cpuSeconds = processCpuSeconds() - c0;
    }
    g.executed = cold->executed();

    // Refs of the executed simulations: every requested config is a
    // memo hit now, so this re-reads and never re-simulates.
    const std::vector<ExperimentConfig> requested = gridConfigs();
    g.requested = requested.size();
    std::set<std::string> seen;
    for (const ExperimentConfig &cfg : requested) {
        if (!seen.insert(cfg.key()).second)
            continue;
        if (const vcoma::RunStats *s = cold->tryRun(cfg))
            g.refs += s->totalRefs();
    }
    if (cold->executed() != g.executed) {
        std::cerr << "perfbench: the tables did not request every config "
                     "of their public lists\n";
        ++g.failed;
    }
    g.failed += cold->failures().size();
    cold.reset();

    Artefacts warmOut;
    {
        Tracer::Scope span(tracer, "harness.warm", "");
        const double w0 = wallSeconds();
        vcoma::Runner warm(dir);
        warmOut = regenerate(warm, tracer);
        g.warmSeconds = wallSeconds() - w0;
        if (warm.executed() != 0) {
            std::cerr << "perfbench: warm regeneration simulated "
                      << warm.executed() << " config(s)\n";
            ++g.failed;
        }
    }

    for (const Artefacts *out : {&coldOut, &warmOut}) {
        for (const auto &[label, body] : *out) {
            ++g.attempted;
            if (!check.check(label, body))
                ++g.failed;
        }
    }
    std::filesystem::remove_all(dir);
    return g;
}

} // namespace perfbench
