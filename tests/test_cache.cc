/** @file Unit and property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/rng.hh"
#include "mem/cache.hh"

using namespace vcoma;

namespace
{

CacheConfig
smallWriteBack()
{
    return CacheConfig{1024, 2, 64, /*writeThrough=*/false,
                       /*writeAllocate=*/true};
}

CacheConfig
smallWriteThrough()
{
    return CacheConfig{1024, 1, 32, /*writeThrough=*/true,
                       /*writeAllocate=*/false};
}

} // namespace

TEST(Cache, ReadMissThenHit)
{
    Cache c("t", smallWriteBack());
    auto first = c.access(0x1000, RefType::Read);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.allocated);
    auto second = c.access(0x1000, RefType::Read);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(c.readMisses.value(), 1u);
    EXPECT_EQ(c.readHits.value(), 1u);
}

TEST(Cache, SameBlockDifferentWordsHit)
{
    Cache c("t", smallWriteBack());
    c.access(0x1000, RefType::Read);
    EXPECT_TRUE(c.access(0x1004, RefType::Read).hit);
    EXPECT_TRUE(c.access(0x103F, RefType::Read).hit);
    EXPECT_FALSE(c.access(0x1040, RefType::Read).hit);
}

TEST(Cache, WriteBackMarksDirtyAndWritesBack)
{
    Cache c("t", smallWriteBack());
    c.access(0x1000, RefType::Write);  // miss, allocate, dirty
    // Fill the set until 0x1000's block is evicted: set of 0x1000 has
    // 8 sets (1024/2/64); same-set addresses differ by 512 bytes.
    auto r1 = c.access(0x1000 + 512, RefType::Read);
    EXPECT_FALSE(r1.hit);
    auto r2 = c.access(0x1000 + 1024, RefType::Read);
    EXPECT_FALSE(r2.hit);
    EXPECT_TRUE(r2.hasVictim);
    EXPECT_EQ(r2.victim, 0x1000u);
    EXPECT_TRUE(r2.victimDirty);
    EXPECT_EQ(c.writebacks.value(), 1u);
}

TEST(Cache, WriteThroughNeverDirty)
{
    Cache c("t", CacheConfig{1024, 2, 64, /*writeThrough=*/true,
                             /*writeAllocate=*/true});
    c.access(0x1000, RefType::Write);
    c.access(0x1000 + 512, RefType::Read);
    auto r = c.access(0x1000 + 1024, RefType::Read);
    ASSERT_TRUE(r.hasVictim);
    EXPECT_FALSE(r.victimDirty);
    EXPECT_EQ(c.writebacks.value(), 0u);
}

TEST(Cache, NoWriteAllocateSkipsAllocation)
{
    Cache c("t", smallWriteThrough());
    auto w = c.access(0x2000, RefType::Write);
    EXPECT_FALSE(w.hit);
    EXPECT_FALSE(w.allocated);
    EXPECT_FALSE(c.contains(0x2000));
    // But a write to a read-allocated block hits.
    c.access(0x2000, RefType::Read);
    EXPECT_TRUE(c.access(0x2000, RefType::Write).hit);
}

TEST(Cache, LruVictimSelection)
{
    Cache c("t", smallWriteBack());  // 2-way, same-set stride 512
    c.access(0x0000, RefType::Read);
    c.access(0x0200, RefType::Read);
    c.access(0x0000, RefType::Read);  // touch A: B is now LRU
    auto r = c.access(0x0400, RefType::Read);
    ASSERT_TRUE(r.hasVictim);
    EXPECT_EQ(r.victim, 0x0200u);
    EXPECT_TRUE(c.contains(0x0000));
}

TEST(Cache, InvalidateBlock)
{
    Cache c("t", smallWriteBack());
    c.access(0x3000, RefType::Write);
    bool dirty = false;
    EXPECT_TRUE(c.invalidateBlock(0x3000, dirty));
    EXPECT_TRUE(dirty);
    EXPECT_FALSE(c.contains(0x3000));
    EXPECT_FALSE(c.invalidateBlock(0x3000, dirty));
}

TEST(Cache, InvalidateRangeCoversSubBlocks)
{
    // 32-byte blocks; invalidating a 128-byte range kills up to 4.
    Cache c("t", CacheConfig{1024, 4, 32, false, true});
    for (VAddr a = 0x4000; a < 0x4080; a += 32)
        c.access(a, RefType::Write);
    unsigned dirty = 0;
    const unsigned count = c.invalidateRange(0x4000, 128, dirty);
    EXPECT_EQ(count, 4u);
    EXPECT_EQ(dirty, 4u);
    for (VAddr a = 0x4000; a < 0x4080; a += 32)
        EXPECT_FALSE(c.contains(a));
}

TEST(Cache, FlushDropsEverythingKeepsStats)
{
    Cache c("t", smallWriteBack());
    c.access(0x1000, RefType::Read);
    c.access(0x2000, RefType::Write);
    c.flush();
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.contains(0x2000));
    EXPECT_EQ(c.readMisses.value(), 1u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache("bad", CacheConfig{1000, 2, 64, false, true}),
                 FatalError);
    EXPECT_THROW(Cache("bad", CacheConfig{1024, 0, 64, false, true}),
                 FatalError);
    EXPECT_THROW(Cache("bad", CacheConfig{1024, 2, 48, false, true}),
                 FatalError);
}

// ---------------------------------------------------------------------
// Property tests over several geometries.
// ---------------------------------------------------------------------

namespace
{

/** A geometry as a test name, e.g. s1024_a1_b32_wt. */
std::string
geometryName(const CacheConfig &cfg)
{
    return "s" + std::to_string(cfg.sizeBytes) + "_a" +
           std::to_string(cfg.assoc) + "_b" +
           std::to_string(cfg.blockBytes) +
           (cfg.writeThrough ? "_wt" : "_wb");
}

} // namespace

namespace vcoma
{

/**
 * Without a printer gtest would show a CacheConfig as its raw bytes,
 * uninitialised struct padding included, and ctest names each case
 * after that dump, so the names would change from build to build.
 */
void
PrintTo(const CacheConfig &cfg, std::ostream *os)
{
    *os << cfg.sizeBytes << " B, " << cfg.assoc << "-way, "
        << cfg.blockBytes << " B blocks, "
        << (cfg.writeThrough ? "write-through" : "write-back")
        << (cfg.writeAllocate ? ", write-allocate" : "");
}

} // namespace vcoma

class CacheProperty : public ::testing::TestWithParam<CacheConfig>
{
};

/** Capacity invariant: never more distinct blocks resident than ways. */
TEST_P(CacheProperty, CapacityNeverExceeded)
{
    const CacheConfig cfg = GetParam();
    Cache c("p", cfg);
    Rng rng(99);
    std::uint64_t resident = 0;
    for (int i = 0; i < 20000; ++i) {
        const VAddr a = rng.below(1 << 20);
        const auto type =
            rng.below(3) == 0 ? RefType::Write : RefType::Read;
        const auto r = c.access(a, type);
        if (r.allocated && !r.hasVictim)
            ++resident;
        ASSERT_LE(resident, cfg.numBlocks());
    }
}

/** Determinism: identical access streams produce identical stats. */
TEST_P(CacheProperty, Deterministic)
{
    const CacheConfig cfg = GetParam();
    Cache a("a", cfg);
    Cache b("b", cfg);
    Rng r1(5);
    Rng r2(5);
    for (int i = 0; i < 5000; ++i) {
        a.access(r1.below(1 << 18), RefType::Read);
        b.access(r2.below(1 << 18), RefType::Read);
    }
    EXPECT_EQ(a.readHits.value(), b.readHits.value());
    EXPECT_EQ(a.readMisses.value(), b.readMisses.value());
}

/** A working set no larger than one set's ways only cold-misses. */
TEST_P(CacheProperty, SmallWorkingSetOnlyColdMisses)
{
    const CacheConfig cfg = GetParam();
    Cache c("p", cfg);
    // 'assoc' blocks that all live in set 0.
    const VAddr stride = cfg.numSets() * cfg.blockBytes;
    for (unsigned sweep = 0; sweep < 10; ++sweep) {
        for (unsigned w = 0; w < cfg.assoc; ++w)
            c.access(w * stride, RefType::Read);
    }
    EXPECT_EQ(c.readMisses.value(), cfg.assoc);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(
        CacheConfig{1024, 1, 32, true, false},
        CacheConfig{1024, 2, 64, false, true},
        CacheConfig{4096, 4, 64, false, true},
        CacheConfig{16 * 1024, 1, 32, true, false},
        CacheConfig{64 * 1024, 4, 64, false, true},
        CacheConfig{8192, 8, 128, false, true}),
    [](const ::testing::TestParamInfo<CacheConfig> &info) {
        return geometryName(info.param);
    });
