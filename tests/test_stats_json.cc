/**
 * @file
 * Observability-layer tests: the JSON stats exporter round-trips
 * through the in-tree parser and agrees with the RunStats aggregates,
 * the env-gated JSONL/trace outputs appear exactly when their
 * variables are set, the Chrome trace is valid JSON with per-track
 * monotonic timestamps, and a shared V-COMA workload evidences the
 * paper's three DLB effects (filtering, sharing, prefetching).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <unistd.h>

#include "common/json.hh"
#include "sim/event_trace.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "translation/system_builder.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

/** Set an environment variable for one scope, restoring on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        ::setenv(name, value.c_str(), 1);
    }

    ~ScopedEnv()
    {
        if (saved_.empty())
            ::unsetenv(name_);
        else
            ::setenv(name_, saved_.c_str(), 1);
    }

  private:
    const char *name_;
    std::string saved_;
};

/** A per-test temp file path, removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &stem)
        : path_((std::filesystem::temp_directory_path() /
                 (stem + "." + std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove(path_);
    }

    ~TempFile()
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

RunStats
runTinyVcoma()
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.checkLevel = 0;
    Machine machine(cfg);
    WorkloadParams wp;
    wp.threads = cfg.numNodes;
    wp.scale = 0.2;
    auto w = makeWorkload("UNIFORM", wp);
    return machine.run(*w);
}

} // namespace

TEST(JsonParser, ParsesScalarsContainersAndEscapes)
{
    const JsonValue v = JsonValue::parse(
        R"({"a": [1, -2.5, true, null], "s": "x\n\u0041\"", "n": {}})");
    EXPECT_EQ(v.at("a").size(), 4u);
    EXPECT_EQ(v.at("a").at(0).asUint(), 1u);
    EXPECT_DOUBLE_EQ(v.at("a").at(1).asNumber(), -2.5);
    EXPECT_TRUE(v.at("a").at(2).asBool());
    EXPECT_TRUE(v.at("a").at(3).isNull());
    EXPECT_EQ(v.at("s").asString(), "x\nA\"");
    EXPECT_TRUE(v.at("n").isObject());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    EXPECT_THROW(JsonValue::parse("{"), JsonError);
    EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), JsonError);
    EXPECT_THROW(JsonValue::parse("01"), JsonError);
    EXPECT_THROW(JsonValue::parse("\"\\x\""), JsonError);
    EXPECT_THROW(JsonValue::parse("1 2"), JsonError);
}

TEST(JsonParser, EscapeProducesParseableStrings)
{
    const std::string nasty = "quote\" back\\ ctrl\x01 tab\t";
    const JsonValue v =
        JsonValue::parse("\"" + jsonEscape(nasty) + "\"");
    EXPECT_EQ(v.asString(), nasty);
}

TEST(StatsJson, WriterAgreesWithRunStatsAggregates)
{
    const RunStats stats = runTinyVcoma();

    std::ostringstream os;
    writeRunStatsJson(os, stats);
    const JsonValue doc = JsonValue::parse(os.str());

    EXPECT_EQ(doc.at("schema").asUint(), 1u);
    EXPECT_EQ(doc.at("workload").asString(), stats.workload);
    EXPECT_EQ(doc.at("scheme").asString(), "V-COMA");
    EXPECT_EQ(doc.at("numNodes").asUint(), stats.numNodes);
    EXPECT_EQ(doc.at("execTime").asUint(), stats.execTime);

    const JsonValue &totals = doc.at("totals");
    EXPECT_EQ(totals.at("refs").asUint(), stats.totalRefs());
    EXPECT_EQ(totals.at("xlatStall").asUint(), stats.totalXlatStall());
    EXPECT_NEAR(doc.at("xlatOverTotalStallPct").asNumber(),
                stats.xlatOverTotalStallPct(), 1e-9);

    const JsonValue &cpus = doc.at("cpus");
    ASSERT_EQ(cpus.size(), stats.cpus.size());
    std::uint64_t refSum = 0;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        const JsonValue &c = cpus.at(i);
        refSum += c.at("refs").asUint();
        EXPECT_EQ(c.at("accounted").asUint(), stats.cpus[i].accounted());
        EXPECT_EQ(c.at("finish").asUint(), stats.cpus[i].finish);
        // The cycle buckets must partition the accounted time.
        const std::uint64_t buckets =
            c.at("busy").asUint() + c.at("sync").asUint() +
            c.at("locStall").asUint() + c.at("remStall").asUint() +
            c.at("xlatStall").asUint();
        EXPECT_EQ(buckets, c.at("accounted").asUint());
    }
    EXPECT_EQ(refSum, stats.totalRefs());

    EXPECT_EQ(doc.at("shadow").size(), stats.shadow.size());
    const JsonValue &dlb = doc.at("dlb");
    EXPECT_EQ(dlb.at("filteredRefs").asUint(), stats.dlbFilteredRefs);
    EXPECT_EQ(dlb.at("sharedHits").asUint(), stats.dlbSharedHits);
    EXPECT_EQ(dlb.at("prefetchedFills").asUint(),
              stats.dlbPrefetchedFills);
    EXPECT_EQ(dlb.at("requestersPerEntry").at("count").asUint(),
              stats.dlbRequestersPerEntry.count);
    const JsonValue &lat = doc.at("latency");
    EXPECT_EQ(lat.at("remoteRead").at("count").asUint(),
              stats.remoteReadLatency.count);
}

TEST(StatsJson, NonFiniteNumbersSerialiseAsNull)
{
    // %.17g renders non-finite doubles as "inf"/"nan", which are not
    // JSON. The writer must emit null instead so the line still
    // parses (JSON has no non-finite literals).
    RunStats stats;
    stats.workload = "synthetic";
    stats.scheme = Scheme::VCOMA;
    stats.numNodes = 1;
    stats.cpus.resize(1);
    stats.pressureProfile = {
        0.5, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};

    std::ostringstream os;
    writeRunStatsJson(os, stats);
    const std::string line = os.str();
    EXPECT_EQ(line.find("inf"), std::string::npos) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;

    const JsonValue doc = JsonValue::parse(line);
    const JsonValue &profile = doc.at("pressureProfile");
    ASSERT_EQ(profile.size(), 4u);
    EXPECT_NEAR(profile.at(0).asNumber(), 0.5, 1e-12);
    EXPECT_TRUE(profile.at(1).isNull());
    EXPECT_TRUE(profile.at(2).isNull());
    EXPECT_TRUE(profile.at(3).isNull());
}

TEST(StatsJson, ExportIsGatedOnEnvVar)
{
    const RunStats stats = runTinyVcoma();
    // Variable unset: no export, no file.
    ::unsetenv(statsJsonEnvVar);
    EXPECT_FALSE(exportRunStatsJsonFromEnv(stats));

    TempFile file("vcoma_stats_jsonl");
    ScopedEnv env(statsJsonEnvVar, file.path());
    EXPECT_TRUE(exportRunStatsJsonFromEnv(stats));
    EXPECT_TRUE(exportRunStatsJsonFromEnv(stats));  // appends

    std::ifstream in(file.path());
    std::string line;
    unsigned lines = 0;
    while (std::getline(in, line)) {
        const JsonValue doc = JsonValue::parse(line);
        EXPECT_EQ(doc.at("totals").at("refs").asUint(),
                  stats.totalRefs());
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(StatsJson, MachineRunWritesJsonlWhenEnabled)
{
    TempFile file("vcoma_stats_machine_jsonl");
    ScopedEnv env(statsJsonEnvVar, file.path());
    const RunStats stats = runTinyVcoma();

    std::ifstream in(file.path());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const JsonValue doc = JsonValue::parse(line);
    EXPECT_EQ(doc.at("totals").at("refs").asUint(), stats.totalRefs());
    EXPECT_FALSE(std::getline(in, line));  // exactly one run, one line
}

TEST(StatsJson, TraceIsValidJsonWithMonotonicTracks)
{
    TempFile file("vcoma_trace_json");
    ScopedEnv env(EventTracer::envVar, file.path());
    runTinyVcoma();

    std::ifstream in(file.path());
    ASSERT_TRUE(in) << "trace file was not written";
    std::stringstream buf;
    buf << in.rdbuf();
    const JsonValue doc = JsonValue::parse(buf.str());

    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_GT(events.size(), 0u);

    // Per (pid, tid) track, timestamps must never go backwards, and
    // every non-metadata event carries the required fields.
    std::map<std::pair<std::uint64_t, std::uint64_t>, double> last;
    bool sawCoherence = false;
    for (const JsonValue &e : events.asArray()) {
        const std::string &ph = e.at("ph").asString();
        if (ph == "M")
            continue;
        ASSERT_TRUE(ph == "X" || ph == "i") << "unexpected ph " << ph;
        const auto track = std::make_pair(e.at("pid").asUint(),
                                          e.at("tid").asUint());
        const double ts = e.at("ts").asNumber();
        auto it = last.find(track);
        if (it != last.end()) {
            EXPECT_GE(ts, it->second);
        }
        last[track] = ts;
        const std::string &name = e.at("name").asString();
        if (name == "remoteRead" || name == "remoteWrite" ||
            name == "upgrade")
            sawCoherence = true;
    }
    EXPECT_TRUE(sawCoherence)
        << "no coherence transactions in the trace";
}

TEST(StatsJson, SharedVcomaWorkloadEvidencesDlbEffects)
{
    const RunStats stats = runTinyVcoma();
    ASSERT_GT(stats.totalRefs(), 0u);

    // Filtering: the home DLBs only see the traffic the local caches
    // and AMs could not absorb — and together the two sides account
    // for every reference (Section 5.2).
    EXPECT_GT(stats.dlbFilteredRefs, 0u);
    EXPECT_EQ(stats.dlbFilteredRefs + stats.tlbAccesses,
              stats.totalRefs());

    // Sharing: with all nodes touching the same pages, entries serve
    // requesters other than the node that filled them.
    EXPECT_GT(stats.dlbSharedHits, 0u);
    EXPECT_GT(stats.dlbRequestersPerEntry.count, 0u);
    EXPECT_GT(stats.dlbRequestersPerEntry.max, 1.0);

    // Prefetching: some fills went on to serve another node.
    EXPECT_GT(stats.dlbPrefetchedFills, 0u);
    EXPECT_LE(stats.dlbPrefetchedFills,
              stats.dlbRequestersPerEntry.count);
}

TEST(StatsJson, PerNodeTlbSchemesReportNoDlbEffects)
{
    MachineConfig cfg = tinyConfig(Scheme::L2);
    cfg.checkLevel = 0;
    Machine machine(cfg);
    WorkloadParams wp;
    wp.threads = cfg.numNodes;
    wp.scale = 0.2;
    auto w = makeWorkload("UNIFORM", wp);
    const RunStats stats = machine.run(*w);

    EXPECT_EQ(stats.dlbFilteredRefs, 0u);
    EXPECT_EQ(stats.dlbSharedHits, 0u);
    EXPECT_EQ(stats.dlbPrefetchedFills, 0u);
    EXPECT_EQ(stats.dlbRequestersPerEntry.count, 0u);
}
