#include "traced.hh"

#include <chrono>
#include <filesystem>
#include <iostream>
#include <optional>

#include "core/vaddr_layout.hh"
#include "mem/cache.hh"
#include "tlb/shadow_bank.hh"
#include "translation/scheme.hh"
#include "workloads/replay.hh"

namespace perfbench
{

namespace
{

using vcoma::MemRef;

/** One memory reference: the address with bit 0 set for a write. */
using Stream = std::vector<std::uint64_t>;

std::uint64_t
packRef(const MemRef &r)
{
    return (r.vaddr & ~std::uint64_t{1}) |
           (r.type == vcoma::RefType::Write ? 1u : 0u);
}

/**
 * Decorator around a workload: times every resume of each thread's
 * generator and counts the events it yields. Materialised (replayed)
 * streams pass through untouched.
 */
class TimedWorkload : public vcoma::Workload
{
  public:
    explicit TimedWorkload(vcoma::Workload &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    std::string parameters() const override { return inner_.parameters(); }
    unsigned numThreads() const override { return inner_.numThreads(); }
    const vcoma::AddressSpace &space() const override
    {
        return inner_.space();
    }
    bool materialised() const override { return inner_.materialised(); }
    std::span<const MemRef>
    stream(unsigned tid) override
    {
        return inner_.stream(tid);
    }

    vcoma::Generator<MemRef>
    thread(unsigned tid) override
    {
        return timed(inner_.thread(tid));
    }

    double genSeconds() const { return genNs_ * 1e-9; }
    std::uint64_t events() const { return events_; }

  private:
    vcoma::Generator<MemRef>
    timed(vcoma::Generator<MemRef> gen)
    {
        using Clock = std::chrono::steady_clock;
        for (;;) {
            const auto t0 = Clock::now();
            const MemRef *r = gen.nextPtr();
            genNs_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
            if (!r)
                co_return;
            ++events_;
            co_yield *r;
        }
    }

    vcoma::Workload &inner_;
    std::int64_t genNs_ = 0;
    std::uint64_t events_ = 0;
};

/** Per-thread memory references of a materialised workload. */
std::vector<Stream>
streamsOf(vcoma::Workload &w)
{
    std::vector<Stream> out(w.numThreads());
    for (unsigned t = 0; t < out.size(); ++t)
        for (const MemRef &r : w.stream(t))
            if (r.kind == MemRef::Kind::Mem)
                out[t].push_back(packRef(r));
    return out;
}

struct ComponentReplay
{
    double seconds = 0;
    std::uint64_t refs = 0;  ///< memory references replayed
    std::uint64_t ops = 0;   ///< component operations performed
};

/**
 * Each CPU's page stream through a ShadowBank and a Tlb of the
 * configured geometry (one bank access and one TLB lookup per ref).
 */
ComponentReplay
replayTlb(const std::vector<Stream> &streams, const vcoma::MachineConfig &mc)
{
    const vcoma::VAddrLayout layout(mc);
    const auto &tc = mc.translation;
    ComponentReplay r;
    const double t0 = wallSeconds();
    for (unsigned cpu = 0; cpu < streams.size(); ++cpu) {
        vcoma::ShadowBank bank(mc.seed + 0x5bd1e995ULL * (cpu + 1));
        std::optional<vcoma::Tlb> tlb;
        if (tc.entries)
            tlb.emplace(tc.entries, tc.assoc, mc.seed + 77 * (cpu + 1));
        for (std::uint64_t x : streams[cpu]) {
            const vcoma::PageNum vpn = layout.vpn(x & ~std::uint64_t{1});
            bank.access(vpn);
            if (tlb)
                tlb->access(vpn);
        }
        r.refs += streams[cpu].size();
        r.ops += streams[cpu].size() * (tlb ? 2 : 1);
    }
    r.seconds = wallSeconds() - t0;
    return r;
}

/** Each CPU's block stream through the FLC, its misses through the SLC. */
ComponentReplay
replayCaches(const std::vector<Stream> &streams,
             const vcoma::MachineConfig &mc)
{
    ComponentReplay r;
    const double t0 = wallSeconds();
    for (const Stream &s : streams) {
        vcoma::Cache flc("flc", mc.flc);
        vcoma::Cache slc("slc", mc.slc);
        for (std::uint64_t x : s) {
            const vcoma::RefType type =
                x & 1 ? vcoma::RefType::Write : vcoma::RefType::Read;
            const vcoma::VAddr va = x & ~std::uint64_t{1};
            ++r.ops;
            if (flc.access(va, type).hit && type == vcoma::RefType::Read)
                continue;
            slc.access(va, type);
            ++r.ops;
        }
        r.refs += s.size();
    }
    r.seconds = wallSeconds() - t0;
    return r;
}

/** Configured-structure accesses plus shadow-bank accesses. */
std::uint64_t
tlbLookups(const vcoma::RunStats &s)
{
    const std::uint64_t bank = s.shadow.empty() ? 0 : s.shadow[0].accesses();
    return s.tlbAccesses + s.tlbWritebackAccesses + bank;
}

/** Per-layer totals of a traced run. */
struct LayerTotals
{
    double genSeconds = 0;
    std::uint64_t events = 0;
    double runSeconds = 0;
    std::vector<vcoma::RunStats> sheets;  ///< traced pass, job order
    std::uint64_t refs = 0;
    std::uint64_t tlbLookups = 0;
    double tlbReplaySeconds = 0;
    std::uint64_t tlbReplayOps = 0;
    double tlbEst = 0;
    double memReplaySeconds = 0;
    std::uint64_t memReplayOps = 0;
    double memEst = 0;
    std::uint64_t configured = 0;
    std::uint64_t configuredMisses = 0;
    std::uint64_t dlbLookups = 0;
    std::uint64_t checks = 0;
    std::uint64_t failedChecks = 0;

    void
    expect(const Job &job, const std::string &what, bool ok)
    {
        ++checks;
        if (ok)
            return;
        ++failedChecks;
        std::cerr << "perfbench: count check failed on " << job.label
                  << ": " << what << '\n';
    }
};

/** Wraps each job of the traced pass in a TimedWorkload. */
class LayerProbe : public JobProbe
{
  public:
    explicit LayerProbe(LayerTotals &totals) : totals_(totals) {}

    vcoma::Workload &
    wrap(vcoma::Workload &inner, const Job &) override
    {
        timed_.emplace(inner);
        return *timed_;
    }

    void
    done(const vcoma::RunStats &s, double runSeconds) override
    {
        if (timed_) {
            totals_.genSeconds += timed_->genSeconds();
            totals_.events += timed_->events();
        }
        totals_.runSeconds += runSeconds;
        totals_.sheets.push_back(s);
        timed_.reset();
    }

  private:
    LayerTotals &totals_;
    std::optional<TimedWorkload> timed_;
};

/**
 * Replay @p job's own reference stream (served by the materialised
 * @p w) through the TLB and cache components, scale their per-op
 * cost by the sheet's counts, and check the counts where the replay's
 * input is exactly the layer's stream.
 */
void
splitJob(const Job &job, vcoma::Workload &w, const vcoma::RunStats &s,
         Tracer &tracer, LayerTotals &lt)
{
    const vcoma::MachineConfig mc = machineConfig(job.cfg);
    const vcoma::SchemeTraits traits =
        vcoma::schemeTraits(mc.translation.scheme);
    const std::vector<Stream> streams = streamsOf(w);
    ComponentReplay tlb, mem;
    {
        Tracer::Scope span(&tracer, "tlb.replay", job.label);
        tlb = replayTlb(streams, mc);
    }
    {
        Tracer::Scope span(&tracer, "mem.replay", job.label);
        mem = replayCaches(streams, mc);
    }

    const std::uint64_t lookups = tlbLookups(s);
    lt.tlbLookups += lookups;
    lt.tlbReplaySeconds += tlb.seconds;
    lt.tlbReplayOps += tlb.ops;
    if (tlb.ops)
        lt.tlbEst += lookups * (tlb.seconds / tlb.ops);
    lt.memReplaySeconds += mem.seconds;
    lt.memReplayOps += mem.ops;
    if (mem.ops)
        lt.memEst += (s.flcAccesses + s.slcAccesses) * (mem.seconds / mem.ops);
    lt.configured += s.tlbAccesses + s.tlbWritebackAccesses;
    lt.configuredMisses += s.tlbMisses + s.tlbWritebackMisses;
    if (traits.hasDlb)
        lt.dlbLookups += s.tlbAccesses + s.tlbWritebackAccesses;
    lt.refs += s.totalRefs();

    lt.expect(job, "refs replayed == sheet refs", tlb.refs == s.totalRefs());
    lt.expect(job, "flc accesses == refs replayed", s.flcAccesses == tlb.refs);
    if (traits.perNodeTlb && traits.tlbPoint == vcoma::TlbPoint::PreFlc) {
        lt.expect(job, "configured TLB accesses == refs replayed",
                  s.tlbAccesses + s.tlbWritebackAccesses == tlb.refs);
        for (const vcoma::ShadowPoint &p : s.shadow)
            lt.expect(job,
                      "shadow member " + std::to_string(p.entries) + "/" +
                          std::to_string(p.assoc) +
                          " demand accesses == refs replayed",
                      p.demandAccesses == tlb.refs);
        lt.expect(job, "tlb.lookups == lookups replayed", lookups == tlb.ops);
    }
}

/**
 * The other side of every job, untraced, and its component split.
 * @p untraced is the untraced pass, whose runs are live
 * (Source::Live) or replays (Source::Replay); the other side is run
 * here, its sheet must equal the pass's, and the job's recorded
 * stream is split by splitJob() against the traced sheet.
 * @return the summed replay run time over the summed live run time.
 */
double
replayOverLive(const WorkloadDef &def, const PassResult &untraced,
               const TraceSet *traces, const std::string &workDir,
               Tracer &tracer, LayerTotals &lt, Outcome &out)
{
    double replay = 0, live = 0;
    const std::string path = workDir + "/replay-check.vctrace";
    for (std::size_t i = 0; i < def.jobs.size(); ++i) {
        const Job &job = def.jobs[i];
        ++out.attempted;
        try {
            vcoma::RunStats other;
            std::optional<vcoma::ReplayWorkload> recorded;
            if (traces) {
                auto w = vcoma::makeWorkload(job.cfg.workload,
                                             workloadParams(job.cfg));
                vcoma::Machine m(machineConfig(job.cfg));
                Tracer::Scope span(&tracer, "sim.live_run", job.label);
                other = m.run(*w);
                live += span.elapsed();
                replay += untraced.jobRunSeconds[i];
                recorded.emplace(traces->path(job.cfg.workload));
            } else {
                {
                    Tracer::Scope span(&tracer, "sim.record", job.label);
                    auto w = vcoma::makeWorkload(job.cfg.workload,
                                                 workloadParams(job.cfg));
                    vcoma::RecordingWorkload rec(*w, path, job.cfg.key());
                    vcoma::Machine m(machineConfig(job.cfg));
                    m.run(rec);
                    if (!rec.finalize())
                        throw std::runtime_error("could not publish " + path);
                }
                recorded.emplace(path);
                vcoma::Machine m(machineConfig(job.cfg));
                Tracer::Scope span(&tracer, "sim.replay_run", job.label);
                other = m.run(*recorded);
                replay += span.elapsed();
                live += untraced.jobRunSeconds[i];
            }
            if (digest(statsJson(other)) !=
                digest(statsJson(untraced.sheets[i]))) {
                std::cerr << "perfbench: " << job.label
                          << ": replay sheet differs from live sheet\n";
                ++out.failed;
            }
            splitJob(job, *recorded, lt.sheets.at(i), tracer, lt);
        } catch (const std::exception &e) {
            std::cerr << "perfbench: " << job.label << ": " << e.what()
                      << '\n';
            ++out.failed;
        }
        std::filesystem::remove(path);
    }
    return live > 0 ? replay / live : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

Outcome
runTraced(const WorkloadDef &def, unsigned seed, const References &refs,
          const std::string &workDir, const std::string &spansPath)
{
    Outcome out;
    Tracer tracer;
    MetricSheet &m = out.metrics;

    // Harness layer and the untraced/traced pair behind trace.overhead.
    double untracedCpu = 0, tracedCpu = 0;
    double poolBusy = 0, executedPerRequest = 0, warmMsPerConfig = 0;
    WorkloadDef layers = def;
    std::optional<TraceSet> traces;
    OutputCheck check(refs, def.source == Source::Grid ? 0 : seed, def.name,
                      false);
    if (def.source == Source::Grid) {
        const std::string dir = workDir + "/grid-cache";
        const GridResult u = runGridPass(dir, check);
        const GridResult t = runGridPass(dir, check, &tracer);
        untracedCpu = u.cpuSeconds;
        tracedCpu = t.cpuSeconds;
        poolBusy = ratio(t.cpuSeconds, gridJobs() * t.wallSeconds);
        executedPerRequest = ratio(t.executed, t.requested);
        warmMsPerConfig = ratio(1e3 * t.warmSeconds, t.requested);
        out.attempted += u.attempted + t.attempted;
        out.failed += u.failed + t.failed;
        layers = gridSample();
    }
    if (layers.source == Source::Replay) {
        traces.emplace(workDir);
        Tracer::Scope span(&tracer, "workloads.record", "");
        traces->record(layers);
    }
    const TraceSet *ts = traces ? &*traces : nullptr;

    const PassResult u = runDirectPass(layers, 0, ts, check);
    LayerTotals lt;
    LayerProbe probe(lt);
    const PassResult t =
        runDirectPass(layers, 1, ts, check, &tracer, &probe);
    out.attempted += u.attempted + t.attempted;
    out.failed += u.failed + t.failed;
    if (def.source != Source::Grid) {
        untracedCpu = u.cpuSeconds;
        tracedCpu = t.cpuSeconds;
        poolBusy = ratio(u.cpuSeconds, u.wallSeconds);
        executedPerRequest = ratio(u.attempted - u.failed, u.attempted);
        warmMsPerConfig =
            ratio(1e3 * reemitSeconds(u.sheets, 50), u.sheets.size());
    }
    const double replayRatio =
        replayOverLive(layers, u, ts, workDir, tracer, lt, out);

    // Sheet counts, summed over the traced pass.
    std::uint64_t flcMisses = 0, flc = 0, slcMisses = 0, slc = 0;
    std::uint64_t dlbShared = 0, dlbPrefetched = 0, amMisses = 0;
    std::uint64_t remoteOps = 0, invalidations = 0, messages = 0;
    std::uint64_t pageFaults = 0, swapOuts = 0;
    for (const vcoma::RunStats &s : lt.sheets) {
        flc += s.flcAccesses;
        flcMisses += s.flcMisses;
        slc += s.slcAccesses;
        slcMisses += s.slcMisses;
        dlbShared += s.dlbSharedHits;
        dlbPrefetched += s.dlbPrefetchedFills;
        amMisses += s.amMisses;
        remoteOps += s.remoteReads + s.remoteWrites + s.upgrades;
        invalidations += s.invalidations;
        messages += s.requestMessages + s.blockMessages;
        pageFaults += s.pageFaults;
        swapOuts += s.swapOuts;
    }

    const double runS = lt.runSeconds;
    const double engineS = runS - lt.genSeconds;
    const double estimated = lt.genSeconds + lt.tlbEst + lt.memEst;
    out.attempted += lt.checks + 1;
    out.failed += lt.failedChecks;
    if (estimated > runS) {
        std::cerr << "perfbench: estimated layer times (" << estimated
                  << " s) exceed sim.run_s (" << runS << " s)\n";
        ++out.failed;
    }

    m.set("workloads.gen_s", lt.genSeconds, "s");
    m.set("workloads.events", lt.events, "count");
    m.set("sim.run_s", runS, "s");
    m.set("sim.engine_s", engineS, "s");
    m.set("sim.replay_over_live", replayRatio, "ratio");
    m.set("tlb.lookups", lt.tlbLookups, "count");
    m.set("tlb.miss_ratio", ratio(lt.configuredMisses, lt.configured),
          "ratio");
    m.set("tlb.ns_per_lookup",
          1e9 * ratio(lt.tlbReplaySeconds, lt.tlbReplayOps), "ns");
    m.set("tlb.est_s", lt.tlbEst, "s");
    m.set("mem.flc_accesses", flc, "count");
    m.set("mem.flc_miss_ratio", ratio(flcMisses, flc), "ratio");
    m.set("mem.slc_miss_ratio", ratio(slcMisses, slc), "ratio");
    m.set("mem.ns_per_access",
          1e9 * ratio(lt.memReplaySeconds, lt.memReplayOps), "ns");
    m.set("mem.est_s", lt.memEst, "s");
    m.set("core.dlb_lookups", lt.dlbLookups, "count");
    m.set("core.dlb_shared_hits", dlbShared, "count");
    m.set("core.dlb_prefetched_fills", dlbPrefetched, "count");
    m.set("coma.am_misses", amMisses, "count");
    m.set("coma.remote_ops", remoteOps, "count");
    m.set("coma.invalidations", invalidations, "count");
    m.set("coma.self_s", engineS - lt.tlbEst - lt.memEst, "s");
    m.set("net.messages", messages, "count");
    m.set("vm.page_faults", pageFaults, "count");
    m.set("vm.swap_outs", swapOuts, "count");
    m.set("translation.build_s", tracer.total("translation.build"), "s");
    m.set("common.stats_json_s", tracer.total("common.stats_json"), "s");
    m.set("harness.pool_busy", poolBusy, "ratio");
    m.set("harness.executed_per_request", executedPerRequest, "ratio");
    m.set("harness.warm_ms_per_config", warmMsPerConfig, "ms");
    m.set("trace.overhead", ratio(tracedCpu, untracedCpu) - 1.0, "ratio");

    std::cout << "layer split over " << layers.jobs.size() << " config(s), "
              << lt.refs << " refs: tlb.lookups/refs = "
              << ratio(lt.tlbLookups, lt.refs)
              << ", estimated terms gen " << lt.genSeconds << " s, tlb "
              << lt.tlbEst << " s, mem " << lt.memEst << " s of run "
              << runS << " s; " << lt.checks << " count checks, "
              << lt.failedChecks << " failed\n";
    if (!tracer.write(spansPath)) {
        std::cerr << "perfbench: could not write spans to " << spansPath
                  << '\n';
        ++out.failed;
    }
    return out;
}

} // namespace perfbench
