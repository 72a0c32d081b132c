/**
 * @file
 * Tests for the fault-tolerant simulation farm: hash-ring stability
 * under membership change, TCP transport round-trips, bounded line
 * framing, the retry/backoff schedule, chaos-spec parsing and
 * determinism, heartbeat-driven eviction and re-admission, failover
 * routing, client timeout/reconnect behaviour, memo preloading from
 * the disk cache, and the headline scenario: a worker SIGKILLed in
 * the middle of a sweep with every sheet still byte-identical to a
 * direct local run.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "harness/runner.hh"
#include "service/chaos.hh"
#include "service/client.hh"
#include "service/farm.hh"
#include "service/server.hh"
#include "service/transport.hh"
#include "service/wire.hh"
#include "sim/run_stats_json.hh"

using namespace vcoma;

namespace
{

ExperimentConfig
tinyConfig(const char *workload = "UNIFORM")
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.scheme = Scheme::VCOMA;
    cfg.nodes = 32;
    cfg.scale = 0.05;
    return cfg;
}

ExperimentConfig
tinySeeded(std::uint64_t seed)
{
    ExperimentConfig cfg = tinyConfig();
    cfg.seed = seed;
    return cfg;
}

std::string
sheetOf(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats);
    return os.str();
}

/** Short socket path (sun_path is ~108 bytes; build dirs run long). */
std::string
shortSocketPath(const char *tag)
{
    return "/tmp/vcoma_farm_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

std::string
tempDir(const char *tag)
{
    const std::string dir = "/tmp/vcoma_farm_" + std::string(tag) +
                            "_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

// ---------------------------------------------------------------------
// Consistent hashing.

TEST(HashRing, OwnerIsFirstCandidateAndEveryMemberListedOnce)
{
    const HashRing ring({"alpha", "beta", "gamma"}, 32);
    for (int i = 0; i < 50; ++i) {
        const std::string key = "key-" + std::to_string(i);
        const auto order = ring.candidates(key);
        ASSERT_EQ(order.size(), 3u) << key;
        EXPECT_EQ(order[0], ring.owner(key)) << key;
        std::vector<bool> seen(3, false);
        for (const std::size_t m : order) {
            ASSERT_LT(m, 3u);
            EXPECT_FALSE(seen[m]) << key;
            seen[m] = true;
        }
    }
}

TEST(HashRing, VnodesSpreadKeysAcrossEveryMember)
{
    const HashRing ring({"a", "b", "c"}, 64);
    std::map<std::size_t, unsigned> owned;
    for (int i = 0; i < 300; ++i)
        ++owned[ring.owner("cfg-" + std::to_string(i))];
    EXPECT_EQ(owned.size(), 3u);
    for (const auto &[member, count] : owned)
        EXPECT_GT(count, 0u) << member;
}

TEST(HashRing, MembershipChangeOnlyRemapsTheRemovedMembersKeys)
{
    // Remove "beta": keys owned by "alpha" or "gamma" must keep
    // their owner (by name) — the point of consistent hashing is
    // that a dead worker does not reshuffle the survivors' slices
    // (and their warm memo caches).
    const HashRing before({"alpha", "beta", "gamma"}, 64);
    const HashRing after({"alpha", "gamma"}, 64);
    unsigned kept = 0, moved = 0;
    for (int i = 0; i < 400; ++i) {
        const std::string key = "key-" + std::to_string(i);
        const std::string &was = before.member(before.owner(key));
        const std::string &now = after.member(after.owner(key));
        if (was == "beta") {
            ++moved;  // orphaned keys land somewhere
        } else {
            EXPECT_EQ(was, now) << key;
            ++kept;
        }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(moved, 0u);
}

// ---------------------------------------------------------------------
// Endpoint parsing and the TCP transport.

TEST(Transport, EndpointSpellingsParse)
{
    const Endpoint tcp = parseEndpoint("tcp:127.0.0.1:7717");
    EXPECT_EQ(tcp.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp.host, "127.0.0.1");
    EXPECT_EQ(tcp.port, 7717);
    EXPECT_EQ(tcp.str(), "tcp:127.0.0.1:7717");

    const Endpoint slashes = parseEndpoint("tcp://localhost:80");
    EXPECT_EQ(slashes.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(slashes.host, "localhost");
    EXPECT_EQ(slashes.port, 80);

    const Endpoint prefixed = parseEndpoint("unix:/tmp/x.sock");
    EXPECT_EQ(prefixed.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(prefixed.path, "/tmp/x.sock");

    const Endpoint plain = parseEndpoint("vcoma.sock");
    EXPECT_EQ(plain.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(plain.path, "vcoma.sock");

    EXPECT_THROW(parseEndpoint("tcp:nohost"), FatalError);
    EXPECT_THROW(parseEndpoint("tcp::123"), FatalError);
    EXPECT_THROW(parseEndpoint("tcp:host:notaport"), FatalError);
    EXPECT_THROW(parseEndpoint("tcp:host:99999"), FatalError);
}

TEST(Transport, TcpRoundTripIsByteExact)
{
    Runner runner("");
    ServiceConfig scfg;
    scfg.endpoint = "tcp:127.0.0.1:0";  // kernel-assigned port
    scfg.queueCapacity = 8;
    scfg.workers = 2;
    ServiceServer server(runner, scfg);
    server.start();
    ASSERT_NE(server.boundEndpoint(), scfg.endpoint)
        << "port 0 must resolve to the kernel's choice";

    const ExperimentConfig cfg = tinyConfig();
    ServiceClient client(server.boundEndpoint());
    ASSERT_TRUE(client.ping());
    const auto out = client.run(cfg);
    ASSERT_TRUE(out.ok) << out.error;

    Runner direct("");
    EXPECT_EQ(out.statsJson, sheetOf(direct.run(cfg)));
    server.requestStop();
    server.waitUntilStopped();
}

TEST(Transport, LineBufferCapsFramesAndRecovers)
{
    LineBuffer buf(16);
    std::string line;

    // A frame over the cap: reported Overlong exactly once, then the
    // next (legal) frame still parses.
    const std::string big(40, 'x');
    buf.append(big.data(), big.size());
    EXPECT_EQ(buf.next(line), LineBuffer::Next::Need);
    EXPECT_TRUE(buf.midLine());
    buf.append("\nok\n", 4);
    EXPECT_EQ(buf.next(line), LineBuffer::Next::Overlong);
    EXPECT_EQ(buf.next(line), LineBuffer::Next::Line);
    EXPECT_EQ(line, "ok");
    EXPECT_EQ(buf.next(line), LineBuffer::Next::Need);
    EXPECT_FALSE(buf.midLine());

    // Split delivery of a legal frame.
    buf.append("ab", 2);
    EXPECT_EQ(buf.next(line), LineBuffer::Next::Need);
    buf.append("c\n", 2);
    EXPECT_EQ(buf.next(line), LineBuffer::Next::Line);
    EXPECT_EQ(line, "abc");
}

TEST(Transport, OversizedRequestGetsAProtocolErrorNotAHang)
{
    Runner runner("");
    ServiceConfig scfg;
    scfg.endpoint = shortSocketPath("overlong");
    scfg.queueCapacity = 4;
    scfg.workers = 1;
    scfg.maxLineBytes = 256;
    ServiceServer server(runner, scfg);
    server.start();

    ServiceClient client(scfg.endpoint);
    const std::string reply =
        client.request(std::string(1024, ' ') + "{\"op\":\"ping\"}");
    const JsonValue v = JsonValue::parse(reply);
    EXPECT_FALSE(v.at("ok").asBool());
    EXPECT_NE(v.at("error").asString().find("exceeds"),
              std::string::npos)
        << v.at("error").asString();

    // The connection survives; a legal request still works.
    EXPECT_TRUE(client.ping());
    server.requestStop();
    server.waitUntilStopped();
}

// ---------------------------------------------------------------------
// Retry/backoff schedule.

TEST(Backoff, DelayStaysWithinTheJitterWindow)
{
    Rng rng(7);
    for (unsigned attempt = 0; attempt < 12; ++attempt) {
        const std::uint64_t cap = 2000, base = 50;
        const std::uint64_t d =
            std::min(cap, attempt < 63 ? base << attempt : cap);
        for (int i = 0; i < 20; ++i) {
            const std::uint64_t got =
                ServiceClient::backoffDelayMs(attempt, base, cap, rng);
            EXPECT_GE(got, d / 2) << attempt;
            EXPECT_LE(got, d) << attempt;
        }
    }
}

TEST(Backoff, ZeroBaseMeansNoDelayAndSeedsAreDeterministic)
{
    Rng rng(1);
    EXPECT_EQ(ServiceClient::backoffDelayMs(5, 0, 1000, rng), 0u);

    Rng a(42), b(42);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(ServiceClient::backoffDelayMs(i, 50, 2000, a),
                  ServiceClient::backoffDelayMs(i, 50, 2000, b))
            << i;
}

// ---------------------------------------------------------------------
// Chaos specs.

TEST(Chaos, SpecGrammarParses)
{
    const ChaosSpec s = parseChaosSpec(
        "seed=42,drop=0.05,delay=0.2,delay-ms=10,kill=0.002");
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.seed, 42u);
    EXPECT_DOUBLE_EQ(s.dropP, 0.05);
    EXPECT_DOUBLE_EQ(s.delayP, 0.2);
    EXPECT_EQ(s.delayMs, 10u);
    EXPECT_DOUBLE_EQ(s.killP, 0.002);

    // Bare truthy value: mild connection chaos, never self-kill.
    const ChaosSpec mild = parseChaosSpec("1");
    EXPECT_TRUE(mild.enabled);
    EXPECT_GT(mild.dropP, 0.0);
    EXPECT_DOUBLE_EQ(mild.killP, 0.0);

    EXPECT_THROW(parseChaosSpec("drop=1.5"), FatalError);
    EXPECT_THROW(parseChaosSpec("frobnicate=1"), FatalError);
    EXPECT_THROW(parseChaosSpec("drop=abc"), FatalError);
}

TEST(Chaos, SameSeedSameVerdicts)
{
    ChaosSpec spec = parseChaosSpec("seed=9,drop=0.3,delay=0.3");
    ChaosMonkey a(spec), b(spec);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(a.dropConnection(), b.dropConnection()) << i;
        EXPECT_EQ(a.requestDelayMs(), b.requestDelayMs()) << i;
        EXPECT_FALSE(a.killNow());  // killP 0: never
    }
}

// ---------------------------------------------------------------------
// Client resilience without a farm.

TEST(ClientResilience, HungServerYieldsTypedTimeoutNotAHang)
{
    // A listener that never accepts: the connect completes (backlog),
    // the send lands in the kernel buffer, and no reply ever comes.
    const std::string path = shortSocketPath("hung");
    const int listenFd = listenEndpoint(parseEndpoint(path));
    ASSERT_GE(listenFd, 0);

    ClientOptions opts;
    opts.connectTimeoutMs = 2000;
    opts.requestTimeoutMs = 200;
    opts.maxRetries = 0;
    ServiceClient client(path, opts);
    const auto before = std::chrono::steady_clock::now();
    const auto out = client.run(tinyConfig());
    const auto waited = std::chrono::duration_cast<
        std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - before);
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.timedOut) << out.error;
    EXPECT_LT(waited.count(), 5000) << "deadline did not bound the wait";
    ::close(listenFd);
    std::filesystem::remove(path);
}

TEST(ClientResilience, ReconnectsAfterDaemonRestart)
{
    const std::string path = shortSocketPath("restart");
    Runner runner("");
    auto first = std::make_unique<ServiceServer>(runner, [&] {
        ServiceConfig c;
        c.endpoint = path;
        c.queueCapacity = 4;
        c.workers = 1;
        return c;
    }());
    first->start();

    ClientOptions opts;
    opts.connectTimeoutMs = 3000;
    opts.requestTimeoutMs = 30000;
    opts.maxRetries = 3;
    opts.backoffBaseMs = 10;
    opts.backoffCapMs = 50;
    ServiceClient client(path, opts);
    ASSERT_TRUE(client.run(tinyConfig()).ok);

    // Kill the daemon and bring up a fresh one on the same path: the
    // client's next resilient run must reconnect and succeed.
    first->requestStop();
    first->waitUntilStopped();
    first.reset();
    Runner runner2("");
    ServiceServer second(runner2, [&] {
        ServiceConfig c;
        c.endpoint = path;
        c.queueCapacity = 4;
        c.workers = 1;
        return c;
    }());
    second.start();

    const auto out = client.runResilient(tinySeeded(2));
    EXPECT_TRUE(out.ok) << out.error;
    second.requestStop();
    second.waitUntilStopped();
}

// ---------------------------------------------------------------------
// The farm router.

namespace
{

/** An in-process worker on its own socket, with its own Runner. */
struct LocalWorker
{
    explicit LocalWorker(const std::string &endpoint,
                         const std::string &cacheDir = "")
        : runner(cacheDir)
    {
        ServiceConfig c;
        c.endpoint = endpoint;
        c.queueCapacity = 16;
        c.workers = 2;
        server = std::make_unique<ServiceServer>(runner, c);
        server->start();
    }

    Runner runner;
    std::unique_ptr<ServiceServer> server;
};

FarmConfig
quickFarm(const std::string &endpoint,
          std::vector<std::string> workers)
{
    FarmConfig f;
    f.endpoint = endpoint;
    f.workers = std::move(workers);
    f.heartbeatMs = 50;
    f.missThreshold = 2;
    f.heartbeatTimeoutMs = 300;
    f.connectTimeoutMs = 500;
    f.forwardTimeoutMs = 60000;
    f.forwardRounds = 3;
    f.backoffBaseMs = 10;
    f.backoffCapMs = 100;
    return f;
}

} // namespace

TEST(Farm, RoutesRunsAndReportsItselfAsFarm)
{
    const std::string w1 = shortSocketPath("route_w1");
    const std::string w2 = shortSocketPath("route_w2");
    LocalWorker a(w1), b(w2);
    FarmRouter router(quickFarm(shortSocketPath("route_f"), {w1, w2}));
    router.startFarm();

    ServiceClient client(router.boundEndpoint());
    const JsonValue pong =
        JsonValue::parse(client.request("{\"op\":\"ping\"}"));
    ASSERT_TRUE(pong.at("ok").asBool());
    EXPECT_EQ(pong.at("role").asString(), "farm");
    EXPECT_EQ(pong.at("workers").asUint(), 2u);

    const ExperimentConfig cfg = tinyConfig();
    const auto out = client.run(cfg);
    ASSERT_TRUE(out.ok) << out.error;
    Runner direct("");
    EXPECT_EQ(out.statsJson, sheetOf(direct.run(cfg)));

    // Same key again: the owning worker's memo makes it a cache hit.
    const auto again = client.run(cfg);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(again.cached);
    EXPECT_EQ(again.statsJson, out.statsJson);

    const JsonValue stats = JsonValue::parse(client.statsLine());
    ASSERT_TRUE(stats.at("ok").asBool());
    EXPECT_GE(stats.at("farmStats").at("routed").asUint(), 2u);
    EXPECT_EQ(stats.at("farmStats").at("unrouted").asUint(), 0u);

    // Exactly one worker simulated the config, exactly once.
    const unsigned executed =
        a.runner.executed() + b.runner.executed();
    EXPECT_EQ(executed, 1u);
}

TEST(Farm, BatchFansOutAndComesBackInOrder)
{
    const std::string w1 = shortSocketPath("batch_w1");
    const std::string w2 = shortSocketPath("batch_w2");
    LocalWorker a(w1), b(w2);
    FarmRouter router(quickFarm(shortSocketPath("batch_f"), {w1, w2}));
    router.startFarm();

    std::vector<ExperimentConfig> cfgs;
    for (std::uint64_t s = 1; s <= 5; ++s)
        cfgs.push_back(tinySeeded(s));
    ServiceClient client(router.boundEndpoint());
    const auto outcomes = client.batch(cfgs);
    ASSERT_EQ(outcomes.size(), cfgs.size());

    Runner direct("");
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << i << ": " << outcomes[i].error;
        EXPECT_EQ(outcomes[i].statsJson, sheetOf(direct.run(cfgs[i])))
            << i;
    }
}

TEST(Farm, HeartbeatEvictsDeadWorkerAndReadmitsOnRecovery)
{
    const std::string live = shortSocketPath("hb_live");
    const std::string dead = shortSocketPath("hb_dead");
    LocalWorker a(live);
    FarmRouter router(quickFarm(shortSocketPath("hb_f"), {live, dead}));
    router.startFarm();

    auto aliveFlags = [&] {
        std::map<std::string, bool> flags;
        for (const auto &w : router.workerStatus())
            flags[w.endpoint] = w.alive;
        return flags;
    };

    // Nothing listens on `dead`: within a few heartbeats it must be
    // evicted while the live worker stays in.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (aliveFlags()[dead] &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(aliveFlags()[dead]);
    EXPECT_TRUE(aliveFlags()[live]);

    // Every key still routes (to the survivor).
    ServiceClient client(router.boundEndpoint());
    for (std::uint64_t s = 1; s <= 4; ++s) {
        const auto out = client.run(tinySeeded(s));
        EXPECT_TRUE(out.ok) << out.error;
    }

    // Bring a worker up on the dead endpoint: heartbeats re-admit it.
    LocalWorker revived(dead);
    const auto deadline2 =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!aliveFlags()[dead] &&
           std::chrono::steady_clock::now() < deadline2)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(aliveFlags()[dead]);
}

// ---------------------------------------------------------------------
// Real worker processes: SIGKILL mid-sweep, byte-identical output.

namespace
{

pid_t
spawnWorker(const std::string &endpoint, const std::string &cacheDir)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execl(VCOMA_SERVED_BIN, "vcoma_served", "--socket",
                endpoint.c_str(), "--capacity", "16", "--workers", "2",
                "--cache-dir", cacheDir.c_str(),
                static_cast<char *>(nullptr));
        _exit(127);
    }
    return pid;
}

void
awaitWorker(const std::string &endpoint)
{
    ClientOptions opts;
    opts.connectTimeoutMs = 15000;
    opts.requestTimeoutMs = 5000;
    opts.maxRetries = 2;
    ServiceClient probe(endpoint, opts);
    ASSERT_TRUE(probe.ping()) << endpoint;
}

void
reap(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
}

} // namespace

TEST(FarmFailover, WorkerSigkilledMidSweepStillByteIdentical)
{
    const std::string dir = tempDir("kill");
    const std::string cache = dir + "/cache";
    std::filesystem::create_directories(cache);
    const std::string w1 = shortSocketPath("kill_w1");
    const std::string w2 = shortSocketPath("kill_w2");

    const pid_t pid1 = spawnWorker(w1, cache);
    const pid_t pid2 = spawnWorker(w2, cache);
    ASSERT_GT(pid1, 0);
    ASSERT_GT(pid2, 0);
    awaitWorker(w1);
    awaitWorker(w2);

    FarmRouter router(quickFarm(shortSocketPath("kill_f"), {w1, w2}));
    router.startFarm();

    std::vector<ExperimentConfig> cfgs;
    for (std::uint64_t s = 1; s <= 6; ++s)
        cfgs.push_back(tinySeeded(s));

    ClientOptions copts;
    copts.connectTimeoutMs = 5000;
    copts.requestTimeoutMs = 60000;
    copts.maxRetries = 5;
    copts.backoffBaseMs = 20;
    copts.backoffCapMs = 200;
    ServiceClient client(router.boundEndpoint(), copts);

    std::vector<std::string> sheets;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        if (i == 2) {
            // SIGKILL one worker mid-sweep: no drain, no goodbye.
            ::kill(pid1, SIGKILL);
            reap(pid1);
        }
        const auto out = client.runResilient(cfgs[i]);
        ASSERT_TRUE(out.ok) << i << ": " << out.error;
        sheets.push_back(out.statsJson);
    }

    // Byte-identical to a direct local Runner over the same configs.
    Runner direct("");
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(sheets[i], sheetOf(direct.run(cfgs[i]))) << i;

    // The farm noticed: the dead worker is evicted, and at least one
    // job needed the failover path (or was routed around the corpse).
    // Eviction is the heartbeat thread's job, and the sweep can finish
    // before it has missed enough beats, so wait for it as the
    // heartbeat test does.
    auto deadWorkerEvicted = [&] {
        for (const auto &w : router.workerStatus())
            if (w.endpoint == w1)
                return !w.alive;
        return false;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!deadWorkerEvicted() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(deadWorkerEvicted());

    ServiceClient admin(router.boundEndpoint());
    EXPECT_TRUE(admin.shutdown());
    router.waitUntilStopped();
    reap(pid2);
    std::filesystem::remove_all(dir);
    std::filesystem::remove(w1);
    std::filesystem::remove(w2);
}

TEST(FarmFailover, RestartedWorkerRecoversWarmStateFromDiskCache)
{
    // The shared disk cache is the durable layer: a worker restarted
    // with --preload serves previously simulated configs as cache
    // hits without re-executing.
    const std::string dir = tempDir("preload");
    Runner first(dir);
    const ExperimentConfig cfg = tinySeeded(77);
    ASSERT_NE(first.tryRun(cfg), nullptr);
    EXPECT_EQ(first.executed(), 1u);

    Runner restarted(dir);
    EXPECT_GE(restarted.preloadCache(), 1u);
    bool fresh = true;
    ASSERT_NE(restarted.tryRun(cfg, &fresh), nullptr);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(restarted.executed(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(FarmFailover, DuplicateSubmitsAcrossFailoverExecuteOnce)
{
    // Submit the same key before and after its owner dies: the
    // surviving worker (sharing the disk cache) serves the re-routed
    // duplicate from cache instead of re-simulating.
    const std::string dir = tempDir("dup");
    const std::string cache = dir + "/cache";
    std::filesystem::create_directories(cache);
    const std::string w1 = shortSocketPath("dup_w1");
    const std::string w2 = shortSocketPath("dup_w2");
    const pid_t pid1 = spawnWorker(w1, cache);
    const pid_t pid2 = spawnWorker(w2, cache);
    awaitWorker(w1);
    awaitWorker(w2);

    FarmRouter router(quickFarm(shortSocketPath("dup_f"), {w1, w2}));
    router.startFarm();

    ClientOptions copts;
    copts.connectTimeoutMs = 5000;
    copts.requestTimeoutMs = 60000;
    copts.maxRetries = 5;
    copts.backoffBaseMs = 20;
    copts.backoffCapMs = 200;
    ServiceClient client(router.boundEndpoint(), copts);

    const ExperimentConfig cfg = tinySeeded(123);
    const auto out1 = client.runResilient(cfg);
    ASSERT_TRUE(out1.ok) << out1.error;

    // Kill the worker that owns (served) the key; both candidates
    // share the cache directory, so kill the ring owner.
    const HashRing &ring = router.ring();
    const bool ownerIsW1 = ring.member(ring.owner(cfg.key())) == w1;
    ::kill(ownerIsW1 ? pid1 : pid2, SIGKILL);
    reap(ownerIsW1 ? pid1 : pid2);

    const auto out2 = client.runResilient(cfg);
    ASSERT_TRUE(out2.ok) << out2.error;
    EXPECT_EQ(out2.statsJson, out1.statsJson);
    // Served from the shared disk cache: no second simulation.
    EXPECT_TRUE(out2.cached);

    ServiceClient admin(router.boundEndpoint());
    EXPECT_TRUE(admin.shutdown());
    router.waitUntilStopped();
    reap(ownerIsW1 ? pid2 : pid1);
    std::filesystem::remove_all(dir);
    std::filesystem::remove(ownerIsW1 ? w2 : w1);
}
