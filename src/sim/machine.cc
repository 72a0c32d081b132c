#include "sim/machine.hh"

#include <algorithm>
#include <ostream>
#include <queue>

#include "common/stats.hh"

#include "check/invariant_checker.hh"
#include "check/snapshot.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "sim/event_trace.hh"
#include "sim/run_stats_json.hh"
#include "sim/sync.hh"
#include "translation/system_builder.hh"

namespace vcoma
{

Machine::Machine(const MachineConfig &cfg)
    : cfg_(validated(cfg)),
      traits_(schemeTraits(cfg_.translation.scheme)),
      layout_(cfg_),
      pressure_(cfg_.numGlobalPageSets(), cfg_.globalPageSetCapacity()),
      allocator_(makeAllocator(traits_, layout_, pressure_, cfg_.numNodes)),
      pageTable_(layout_.pageBits(), *allocator_),
      directory_(static_cast<unsigned>(layout_.entriesPerDirPage())),
      network_(cfg_.numNodes, cfg_.timing),
      nodes_(makeNodes(cfg_, traits_)),
      engine_(cfg_, traits_, layout_, pageTable_, directory_, network_,
              nodes_),
      protection_(cfg_, layout_, pageTable_, directory_, network_, nodes_)
{
    if (cfg_.numNodes > 64)
        fatal("copysets are 64-bit masks: at most 64 nodes");

    // Preload pages at their home as they are first touched, and let
    // the page daemon keep every global set below the pressure
    // threshold (Section 4.3).
    pageTable_.onPageResident([this](PageInfo &page) {
        engine_.preloadPage(page);
        while (pressure_.pressure(page.colour) > cfg_.pressureThreshold) {
            const PageNum victim =
                pickSwapVictim(page.colour, page.vpn);
            if (victim == CoherenceEngine::noPage)
                break;
            engine_.purgePage(victim);
            pageTable_.swapOut(victim);
        }
    });

    engine_.onSwapNeeded([this](std::uint64_t colour, PageNum protect) {
        return pickSwapVictim(colour, protect);
    });

    // Robustness knobs: the config wins; otherwise VCOMA_CHECK /
    // VCOMA_WATCHDOG enable the feature (a bare truthy value picks
    // the default, a number > 1 tunes it). Both default to off so
    // unchecked runs stay byte-identical.
    constexpr std::uint64_t defaultCheckInterval = 4096;
    constexpr Cycles defaultWatchdogCycles = 50'000'000;
    checkInterval_ = cfg_.invariantCheckInterval
                         ? cfg_.invariantCheckInterval
                         : envScaledFlag("VCOMA_CHECK",
                                         defaultCheckInterval);
    watchdogCycles_ = cfg_.watchdogCycles
                          ? cfg_.watchdogCycles
                          : envScaledFlag("VCOMA_WATCHDOG",
                                          defaultWatchdogCycles);
    if (checkInterval_ != 0) {
        checker_ = std::make_unique<InvariantChecker>(*this);
        // Protocol transitions are where invariants break, so they
        // weigh much more than plain references in the sweep budget.
        engine_.onTransition([this] { creditInvariantSweep(64); });
    }

    // Observability: off (and free) unless $VCOMA_TRACE_EVENTS names
    // an output file.
    tracer_ = EventTracer::fromEnv();
    engine_.setTracer(tracer_.get());
}

Machine::~Machine() = default;

void
Machine::creditInvariantSweep(std::uint64_t weight)
{
    checkCredit_ += weight;
    if (checkCredit_ < checkInterval_)
        return;
    checkCredit_ = 0;
    checker_->enforce();
}

PageNum
Machine::pickSwapVictim(std::uint64_t colour, PageNum protect)
{
    // Prefer an unreferenced resident page of the colour (a cheap
    // clock-style approximation); fall back to any resident page
    // other than the protected one.
    PageNum fallback = CoherenceEngine::noPage;
    for (const auto &[vpn, page] : pageTable_.entries()) {
        if (!page.resident || page.colour != colour || vpn == protect ||
            engine_.isPinned(vpn))
            continue;
        if (!page.referenced)
            return vpn;
        if (fallback == CoherenceEngine::noPage)
            fallback = vpn;
    }
    return fallback;
}

AccessResult
Machine::access(CpuId cpu, RefType type, VAddr va, Tick now)
{
    return engine_.access(cpu, type, va, now);
}

RunStats
Machine::run(Workload &workload)
{
    const unsigned numCpus = workload.numThreads();
    if (numCpus != cfg_.numNodes) {
        fatal("workload has ", numCpus, " threads but the machine has ",
              cfg_.numNodes, " nodes");
    }

    struct Proc
    {
        Generator<MemRef> program;
        /**
         * Materialised-stream cursor (replay): when the workload
         * serves its threads as arrays, the kernel walks [cur, end)
         * instead of resuming a coroutine per reference.
         */
        const MemRef *cur = nullptr;
        const MemRef *end = nullptr;
        Tick readyAt = 0;
        bool done = false;
        CpuStats stats;
        /**
         * Last event issued, for diagnostic snapshots. Points into
         * the coroutine frame's current slot (which outlives every
         * use here: the generator is destroyed with the Proc) or,
         * when replaying, into the materialised stream.
         */
        const MemRef *lastRef = nullptr;
    };

    const bool materialised = workload.materialised();
    std::vector<Proc> procs(numCpus);
    for (unsigned i = 0; i < numCpus; ++i) {
        if (materialised) {
            const std::span<const MemRef> s = workload.stream(i);
            procs[i].cur = s.data();
            procs[i].end = s.data() + s.size();
        } else {
            procs[i].program = workload.thread(i);
        }
    }

    SyncManager sync(numCpus, cfg_.timing);

    // Forward-progress accounting for the watchdog and the deadlock
    // report: the tick of the last retired memory reference.
    Tick lastRetire = 0;

    auto snapshot = [&](Tick now) {
        MachineSnapshot snap;
        snap.now = now;
        snap.lastRetire = lastRetire;
        snap.parked = sync.parked();
        for (unsigned i = 0; i < numCpus; ++i) {
            const Proc &p = procs[i];
            if (!p.done)
                ++snap.live;
            CpuDiagnostic d;
            d.cpu = i;
            d.readyAt = p.readyAt;
            d.done = p.done;
            d.refs = p.stats.refs;
            d.hasLastRef = p.lastRef != nullptr;
            if (p.lastRef)
                d.lastRef = *p.lastRef;
            snap.cpus.push_back(d);
        }
        snap.waiters = sync.parkedWaiters();
        // The directory ("protocol") entry of each distinct block a
        // stalled processor last touched: the stuck block(s) of a
        // livelocked machine.
        std::vector<VAddr> seen;
        for (const Proc &p : procs) {
            if (p.done || !p.lastRef ||
                p.lastRef->kind != MemRef::Kind::Mem) {
                continue;
            }
            const VAddr blockVa = layout_.blockAlign(p.lastRef->vaddr);
            if (std::find(seen.begin(), seen.end(), blockVa) !=
                seen.end()) {
                continue;
            }
            seen.push_back(blockVa);
            snap.blocks.push_back(describeBlock(layout_, pageTable_,
                                                directory_, blockVa));
            if (snap.blocks.size() >= 8)
                break;
        }
        return snap;
    };

    // Min-heap ordered by (readyAt, cpu) for determinism.
    using Entry = std::pair<Tick, CpuId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    for (unsigned i = 0; i < numCpus; ++i)
        ready.emplace(0, i);

    unsigned live = numCpus;

    // Batching layer of the core speedups: drain consecutive events
    // of one CPU without heap churn. Provably order-identical, but
    // gated with the rest of the fast-path machinery so
    // MachineConfig::fastPath = false runs the pristine event loop.
    const bool batchEvents = engine_.fastPathConfigured();

    // Loop-invariant loads the optimiser cannot hoist itself because
    // engine_.access may alias the members through `this`.
    const Tick watchdogCycles = watchdogCycles_;
    const Cycles busyScale = cfg_.busyScale;
    InvariantChecker *const checker = checker_.get();

    // Reference-bit decay daemon (Section 4.1): the protocol engines
    // periodically clear the page reference bits so the page daemon's
    // victim choice approximates LRU.
    const Cycles decayPeriod = cfg_.refBitDecayPeriod;
    Tick nextDecay = decayPeriod ? decayPeriod : ~Tick{0};

    while (!ready.empty()) {
        auto [when, cpu] = ready.top();
        ready.pop();
        Proc &proc = procs[cpu];

        // Drain consecutive events of this CPU without re-entering
        // the heap while it provably stays the globally next one
        // ((readyAt, cpu) below the heap top in the heap's own
        // lexicographic order). Memory references keep draining; sync
        // events and completion leave the inner loop.
        bool draining = true;
        while (draining) {
            draining = false;

            if (watchdogCycles != 0 &&
                when > lastRetire + watchdogCycles) {
                throw WatchdogError(
                    detail::concat("watchdog: no memory reference "
                                   "retired in the last ",
                                   when - lastRetire, " cycles"),
                    snapshot(when));
            }

            if (when >= nextDecay) {
                // Catch up over a long busy gap in O(1): no reference
                // bit is set between two decay points with no
                // intervening accesses, so the skipped sweeps would
                // find the bits already clear. One sweep, counted
                // once per gap crossing.
                pageTable_.clearReferenceBits();
                ++refBitDecays_;
                nextDecay +=
                    ((when - nextDecay) / decayPeriod + 1) * decayPeriod;
            }
            VCOMA_ASSERT(!proc.done);
            VCOMA_ASSERT(when == proc.readyAt);

            const MemRef *next;
            if (materialised) {
                next = proc.cur != proc.end ? proc.cur++ : nullptr;
            } else {
                next = proc.program.nextPtr();
            }
            if (!next) {
                proc.done = true;
                proc.stats.finish = proc.readyAt;
                --live;
                break;
            }

            const MemRef &ref = *next;
            proc.lastRef = next;
            const Cycles work = ref.work * busyScale;
            Tick t = proc.readyAt + work;
            proc.stats.busy += work;

            switch (ref.kind) {
              case MemRef::Kind::Mem: {
                AccessResult res;
                if (!engine_.fastAccess(cpu, ref.type, ref.vaddr, t,
                                        res)) {
                    res = engine_.access(cpu, ref.type, ref.vaddr, t);
                }
                proc.stats.locStall += res.local;
                proc.stats.remStall += res.remote;
                proc.stats.xlatStall += res.xlat;
                ++proc.stats.refs;
                if (ref.type == RefType::Read)
                    ++proc.stats.reads;
                else
                    ++proc.stats.writes;
                proc.readyAt = res.done;
                lastRetire = std::max(lastRetire, res.done);
                if (checker)
                    creditInvariantSweep(1);
                if (batchEvents &&
                    (ready.empty() ||
                     std::make_pair(proc.readyAt, cpu) < ready.top())) {
                    when = proc.readyAt;
                    draining = true;
                } else {
                    ready.emplace(proc.readyAt, cpu);
                }
                break;
              }
              case MemRef::Kind::Barrier: {
                auto release = sync.arriveBarrier(ref.syncId, cpu, t);
                if (release) {
                    for (const auto &[waiter, arrived] :
                         release->waiters) {
                        Proc &wp = procs[waiter];
                        wp.stats.sync += release->releaseAt - arrived;
                        wp.readyAt = release->releaseAt;
                        ready.emplace(wp.readyAt, waiter);
                    }
                }
                break;
              }
              case MemRef::Kind::LockAcquire: {
                auto grant = sync.acquireLock(ref.syncId, cpu, t);
                if (grant) {
                    proc.stats.sync += *grant - t;
                    proc.readyAt = *grant;
                    ready.emplace(proc.readyAt, cpu);
                }
                break;
              }
              case MemRef::Kind::LockRelease: {
                auto grant = sync.releaseLock(ref.syncId, cpu, t);
                proc.readyAt = t;
                ready.emplace(proc.readyAt, cpu);
                if (grant) {
                    Proc &wp = procs[grant->cpu];
                    wp.stats.sync += grant->grantedAt - grant->arrivedAt;
                    wp.readyAt = grant->grantedAt;
                    ready.emplace(wp.readyAt, grant->cpu);
                }
                break;
              }
            }
        }
    }

    if (sync.parked() != 0 || live != 0) {
        Tick endOfTime = lastRetire;
        for (const Proc &p : procs)
            endOfTime = std::max(endOfTime, p.readyAt);
        panic("deadlock: run ended with ", sync.parked(), " parked and ",
              live, " live processors\n", snapshot(endOfTime).format());
    }

    // One final full sweep so a run whose last transition corrupted
    // state still fails loudly.
    if (checker_)
        checker_->enforce();

    Tick execTime = 0;
    std::vector<CpuStats> cpus;
    cpus.reserve(numCpus);
    for (auto &proc : procs) {
        execTime = std::max(execTime, proc.stats.finish);
        cpus.push_back(proc.stats);
    }
    RunStats stats = collect(workload, std::move(cpus), execTime);

    // Observability exports, both env-gated: one JSONL line per run
    // ($VCOMA_STATS_JSON) and the Chrome trace ($VCOMA_TRACE_EVENTS).
    exportRunStatsJsonFromEnv(stats);
    if (tracer_)
        tracer_->flush(cfg_.numNodes);
    return stats;
}

void
Machine::dumpStats(std::ostream &os) const
{
    StatGroup root("machine");

    // Each component registers its own counters; this function only
    // assembles the hierarchy. Everything registered here lives in
    // this Machine, satisfying StatGroup's lifetime contract for the
    // dump below.
    StatGroup protocol("protocol");
    engine_.addStats(protocol);
    root.addChild(protocol);

    StatGroup net("network");
    network_.addStats(net);
    root.addChild(net);

    StatGroup vm("vm");
    vm.addCounter("pageFaults", pageTable_.pageFaults);
    vm.addCounter("pageReloads", pageTable_.pageReloads);
    vm.addCounter("swapOuts", pageTable_.swapOuts);
    pressure_.addStats(vm);
    vm.addCounter("refBitDecays", refBitDecays_);
    root.addChild(vm);

    std::vector<StatGroup> nodeGroups;
    nodeGroups.reserve(nodes_.size());
    for (const auto &nodePtr : nodes_) {
        const Node &n = *nodePtr;
        StatGroup group("node" + std::to_string(n.id));
        n.flc.addStats(group, "flc.");
        n.slc.addStats(group, "slc.");
        n.am.addStats(group, "am.");
        group.addCounter("upgradesIssued", n.upgradesIssued);
        group.addCounter("injectionsIssued", n.injectionsIssued);
        group.addCounter("injectionsAccepted", n.injectionsAccepted);
        group.addCounter("invalsReceived", n.invalsReceived);
        if (n.tlb)
            n.tlb->addStats(group, "tlb.");
        if (n.tlbSpill)
            n.tlbSpill->addStats(group, "tlbSpill.");
        if (n.dlb)
            n.dlb->addStats(group, "dlb.");
        nodeGroups.push_back(std::move(group));
    }
    // addChild only after every move: the vector's elements now have
    // their final addresses (see the StatGroup lifetime contract).
    for (const auto &group : nodeGroups)
        root.addChild(group);

    root.dump(os);
}

RunStats
Machine::collect(Workload &workload, std::vector<CpuStats> cpus,
                 Tick execTime)
{
    RunStats stats;
    stats.workload = workload.name();
    stats.parameters = workload.parameters();
    stats.scheme = cfg_.translation.scheme;
    stats.numNodes = cfg_.numNodes;
    stats.sharedBytes = workload.sharedBytes();
    stats.cpus = std::move(cpus);
    stats.execTime = execTime;

    // Aggregate the shadow banks across nodes.
    for (unsigned entries : shadowSizes()) {
        for (unsigned assoc : {0u, 1u}) {
            ShadowPoint point;
            point.entries = entries;
            point.assoc = assoc;
            for (const auto &nodePtr : nodes_)
                point += nodePtr->shadow.counts(entries, assoc);
            stats.shadow.push_back(point);
        }
    }

    for (const auto &nodePtr : nodes_) {
        const Node &n = *nodePtr;
        stats.flcAccesses += n.flc.accesses();
        stats.flcMisses += n.flc.misses();
        stats.slcAccesses += n.slc.accesses();
        stats.slcMisses += n.slc.misses();
        stats.amHits += n.am.hits.value();
        stats.amMisses += n.am.misses.value();
        if (n.tlb) {
            stats.tlbAccesses += n.tlb->demandAccesses.value();
            stats.tlbMisses += n.tlb->demandMisses.value();
            stats.tlbWritebackAccesses += n.tlb->writebackAccesses.value();
            stats.tlbWritebackMisses += n.tlb->writebackMisses.value();
        }
        if (n.dlb) {
            stats.tlbAccesses += n.dlb->tlb().demandAccesses.value();
            stats.tlbMisses += n.dlb->tlb().demandMisses.value();
            stats.tlbWritebackAccesses +=
                n.dlb->tlb().writebackAccesses.value();
            stats.tlbWritebackMisses +=
                n.dlb->tlb().writebackMisses.value();
            // Sample the requester spread of the still-live DLB
            // entries (retired ones were sampled as they left), then
            // fold this home node into the machine-wide DLB-effect
            // counters (Section 5.2: sharing and prefetching).
            n.dlb->finalizeEntryStats();
            stats.dlbSharedHits += n.dlb->sharedHits.value();
            stats.dlbPrefetchedFills += n.dlb->prefetchedFills.value();
            stats.dlbRequestersPerEntry.merge(
                DistSummary::of(n.dlb->requestersPerEntry));
        }
    }

    stats.pressureProfile = pressure_.profile();

    stats.remoteReads = engine_.remoteReads.value();
    stats.remoteWrites = engine_.remoteWrites.value();
    stats.upgrades = engine_.upgrades.value();
    stats.invalidations = engine_.invalidationsSent.value();
    stats.injections = engine_.injections.value();
    stats.injectionHops = engine_.injectionHops.value();
    stats.sharedDrops = engine_.sharedDrops.value();
    stats.pageFaults = pageTable_.pageFaults.value();
    stats.swapOuts = pageTable_.swapOuts.value();
    stats.tlbShootdowns = engine_.tlbShootdowns.value();

    stats.requestMessages = network_.requestMessages.value();
    stats.blockMessages = network_.blockMessages.value();

    stats.dlbFilteredRefs = engine_.dlbFilteredRefs.value();
    stats.tlbSpillProbes = engine_.tlbSpillProbes.value();
    stats.tlbSpillHits = engine_.tlbSpillHits.value();
    stats.tlbSpillFills = engine_.tlbSpillFills.value();
    stats.remoteReadLatency = DistSummary::of(engine_.remoteReadLatency);
    stats.remoteWriteLatency = DistSummary::of(engine_.remoteWriteLatency);
    stats.dlbFillLatency = DistSummary::of(engine_.dlbFillLatency);
    return stats;
}

} // namespace vcoma
