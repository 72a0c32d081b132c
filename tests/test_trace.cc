/**
 * @file
 * Tests for the text trace grammar and its bridge to the packed
 * format: live runs are recorded as packed traces, dumped as text,
 * converted back and replayed through ReplayWorkload.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "sim/machine.hh"
#include "sim/memref_pack.hh"
#include "sim/trace.hh"
#include "sim/trace_convert.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct TempDir
{
    TempDir()
    {
        static int seq = 0;
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_trace_" + std::to_string(::getpid()) + "_" +
                std::to_string(seq++));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string file(const char *name) const
    {
        return (path / name).string();
    }
    std::filesystem::path path;
};

WorkloadParams
params4()
{
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.05;
    p.seed = 11;
    return p;
}

/** Live run of @p workload on a tiny machine, recorded to @p path. */
RunStats
recordPacked(const std::string &workload, const std::string &path)
{
    auto live = makeWorkload(workload, params4());
    RecordingWorkload recorder(*live, path, "trace-test");
    Machine m(tinyConfig(Scheme::VCOMA));
    const RunStats stats = m.run(recorder);
    EXPECT_TRUE(recorder.finalize());
    return stats;
}

std::string
dumpText(const std::string &packedPath)
{
    std::ostringstream os;
    dumpPackedTraceAsText(packedPath, os);
    return os.str();
}

/** Text dump of @p packedPath converted back into @p outPath. */
std::uint64_t
reconvert(const std::string &packedPath, const std::string &outPath)
{
    std::istringstream is(dumpText(packedPath));
    return convertTextTraceToPacked(is, outPath);
}

} // namespace

TEST(Trace, RecordProducesHeaderAndEvents)
{
    TempDir dir;
    recordPacked("STRIDE", dir.file("live.vctrace"));
    const std::string text = dumpText(dir.file("live.vctrace"));
    EXPECT_EQ(text.rfind("vcoma-trace-v1\nthreads 4\n", 0), 0u);

    const std::uint64_t events =
        reconvert(dir.file("live.vctrace"), dir.file("text.vctrace"));
    EXPECT_GT(events, 0u);
    ReplayWorkload replay(dir.file("text.vctrace"));
    EXPECT_EQ(replay.totalEvents(), events);
    EXPECT_EQ(replay.totalEvents(),
              summarizePackedTrace(dir.file("live.vctrace")).totalEvents);
}

TEST(Trace, RoundTripPreservesPerThreadStreams)
{
    TempDir dir;
    recordPacked("STRIDE", dir.file("live.vctrace"));
    reconvert(dir.file("live.vctrace"), dir.file("text.vctrace"));
    ReplayWorkload replay(dir.file("text.vctrace"));

    ASSERT_EQ(replay.numThreads(), 4u);
    // Replay thread streams must equal the original workload's.
    auto w2 = makeWorkload("STRIDE", params4());
    for (unsigned t = 0; t < 4; ++t) {
        const auto events = replay.stream(t);
        auto gen = w2->thread(t);
        std::size_t i = 0;
        while (auto ref = gen.next()) {
            ASSERT_LT(i, events.size()) << "thread " << t;
            const MemRef &got = events[i++];
            EXPECT_EQ(got.kind, ref->kind);
            EXPECT_EQ(got.vaddr, ref->vaddr);
            EXPECT_EQ(got.type, ref->type);
            EXPECT_EQ(got.work, ref->work);
            EXPECT_EQ(got.syncId, ref->syncId);
        }
        EXPECT_EQ(i, events.size());
    }
}

TEST(Trace, ReplayRunsIdenticallyToOriginal)
{
    // Barrier-phased, lock-free kernels replay with identical timing.
    TempDir dir;
    const RunStats original =
        recordPacked("STRIDE", dir.file("live.vctrace"));
    reconvert(dir.file("live.vctrace"), dir.file("text.vctrace"));
    ReplayWorkload replay(dir.file("text.vctrace"));
    Machine m(tinyConfig(Scheme::VCOMA));
    const RunStats replayed = m.run(replay);
    EXPECT_EQ(replayed.execTime, original.execTime);
    EXPECT_EQ(replayed.totalRefs(), original.totalRefs());
    EXPECT_EQ(replayed.remoteReads, original.remoteReads);
}

TEST(Trace, SyntheticSegmentCoversAddresses)
{
    // The parsed footprint spans every touched address, and the
    // converted trace carries it as its shared-bytes figure.
    TempDir dir;
    recordPacked("UNIFORM", dir.file("live.vctrace"));
    std::istringstream is(dumpText(dir.file("live.vctrace")));
    const TextTrace text = parseTextTrace(is);
    ASSERT_GT(text.footprintBytes, 0u);
    for (const auto &events : text.perThread) {
        for (const MemRef &ref : events) {
            if (ref.kind != MemRef::Kind::Mem)
                continue;
            EXPECT_GE(ref.vaddr, text.base);
            EXPECT_LT(ref.vaddr, text.base + text.footprintBytes);
        }
    }
    reconvert(dir.file("live.vctrace"), dir.file("text.vctrace"));
    ReplayWorkload replay(dir.file("text.vctrace"));
    EXPECT_EQ(replay.sharedBytes(), text.footprintBytes);
}

TEST(Trace, RejectsMalformedInput)
{
    {
        std::istringstream is("not-a-trace\n");
        EXPECT_THROW(parseTextTrace(is), FatalError);
    }
    {
        std::istringstream is("vcoma-trace-v1\nthreads 0\n");
        EXPECT_THROW(parseTextTrace(is), FatalError);
    }
    {
        std::istringstream is("vcoma-trace-v1\nthreads 2\n5 R 100 1\n");
        EXPECT_THROW(parseTextTrace(is), FatalError);
    }
    {
        std::istringstream is("vcoma-trace-v1\nthreads 2\n0 X 1\n");
        EXPECT_THROW(parseTextTrace(is), FatalError);
    }
}

TEST(Trace, DiagnosticsCarryLineNumbersAndDetail)
{
    auto messageOf = [](const std::string &text) {
        std::istringstream is(text);
        try {
            parseTextTrace(is);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    // Out-of-range thread ids name the line and the declared count.
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2\n0 R 100 1\n5 R 100 1\n");
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("declares 2 threads"), std::string::npos)
            << msg;
    }
    // A second 'threads' header is called out as such, not as a
    // generic malformed event.
    {
        const std::string msg = messageOf(
            "vcoma-trace-v1\nthreads 2\n0 R 100 1\nthreads 2\n");
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("duplicate 'threads'"), std::string::npos)
            << msg;
    }
    // Trailing garbage after a well-formed event is an error, not a
    // silently ignored suffix.
    {
        const std::string msg = messageOf(
            "vcoma-trace-v1\nthreads 2\n0 R 100 1 junk\n");
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("trailing garbage 'junk'"),
                  std::string::npos)
            << msg;
    }
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2 extra\n");
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("trailing garbage"), std::string::npos)
            << msg;
    }
    // Truncated events report the line and the event family.
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2\n1 W 100\n");
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated memory event"),
                  std::string::npos)
            << msg;
    }
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2\n1 B\n");
        EXPECT_NE(msg.find("truncated barrier event"),
                  std::string::npos)
            << msg;
    }
    // Blank lines are still tolerated and do not shift the numbering.
    {
        std::istringstream is(
            "vcoma-trace-v1\nthreads 2\n\n0 R 100 1\n\n1 R 108 1\n");
        const TextTrace t = parseTextTrace(is);
        EXPECT_EQ(t.perThread[0].size(), 1u);
        EXPECT_EQ(t.perThread[1].size(), 1u);
    }
}

TEST(Trace, LocksAndBarriersSurvive)
{
    TempDir dir;
    recordPacked("OCEAN", dir.file("live.vctrace"));
    reconvert(dir.file("live.vctrace"), dir.file("text.vctrace"));
    ReplayWorkload replay(dir.file("text.vctrace"));
    unsigned locks = 0;
    unsigned barriers = 0;
    for (unsigned t = 0; t < replay.numThreads(); ++t) {
        for (const MemRef &ref : replay.stream(t)) {
            if (ref.kind == MemRef::Kind::LockAcquire)
                ++locks;
            if (ref.kind == MemRef::Kind::Barrier)
                ++barriers;
        }
    }
    EXPECT_GT(locks, 0u);
    EXPECT_GT(barriers, 0u);
    // The replay still runs to completion on a machine.
    Machine m(tinyConfig(Scheme::L0));
    EXPECT_NO_THROW(m.run(replay));
}
