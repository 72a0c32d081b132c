/** @file Unit and property tests for the TLB/DLB model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "tlb/shadow_bank.hh"
#include "tlb/tlb.hh"

using namespace vcoma;

TEST(Tlb, MissThenHit)
{
    Tlb tlb(8, 0, 1);
    EXPECT_FALSE(tlb.access(100));
    EXPECT_TRUE(tlb.access(100));
    EXPECT_EQ(tlb.demandMisses.value(), 1u);
    EXPECT_EQ(tlb.demandAccesses.value(), 2u);
}

TEST(Tlb, WritebackClassCountedSeparately)
{
    Tlb tlb(8, 0, 1);
    tlb.access(1, StreamClass::Writeback);
    tlb.access(2, StreamClass::Demand);
    EXPECT_EQ(tlb.writebackAccesses.value(), 1u);
    EXPECT_EQ(tlb.writebackMisses.value(), 1u);
    EXPECT_EQ(tlb.demandAccesses.value(), 1u);
    // A write-back fill serves later demand accesses.
    EXPECT_TRUE(tlb.access(1, StreamClass::Demand));
}

TEST(Tlb, FullyAssociativeHoldsWorkingSet)
{
    Tlb tlb(16, 0, 7);
    for (int sweep = 0; sweep < 20; ++sweep) {
        for (PageNum p = 0; p < 16; ++p)
            tlb.access(p);
    }
    // Only cold misses: the working set fits.
    EXPECT_EQ(tlb.demandMisses.value(), 16u);
}

TEST(Tlb, DirectMappedConflictsThrash)
{
    Tlb tlb(16, 1, 7);
    // Two pages with the same low bits conflict in a 16-set DM TLB.
    for (int i = 0; i < 100; ++i) {
        tlb.access(0);
        tlb.access(16);
    }
    EXPECT_EQ(tlb.demandMisses.value(), 200u);
}

TEST(Tlb, DirectMappedDistinctSetsNoConflicts)
{
    Tlb tlb(16, 1, 7);
    for (int sweep = 0; sweep < 10; ++sweep) {
        for (PageNum p = 0; p < 16; ++p)
            tlb.access(p);
    }
    EXPECT_EQ(tlb.demandMisses.value(), 16u);
}

TEST(Tlb, SetAssociativeGeometry)
{
    Tlb tlb(16, 4, 3);
    EXPECT_EQ(tlb.organisation(), "4way");
    // 4 sets x 4 ways: 4 pages mapping to set 0 all fit.
    for (int sweep = 0; sweep < 5; ++sweep) {
        for (PageNum p = 0; p < 16; p += 4)
            tlb.access(p);
    }
    EXPECT_EQ(tlb.demandMisses.value(), 4u);
}

TEST(Tlb, InvalidateDropsEntry)
{
    Tlb fa(8, 0, 1);
    fa.access(5);
    EXPECT_TRUE(fa.invalidate(5));
    EXPECT_FALSE(fa.contains(5));
    EXPECT_FALSE(fa.invalidate(5));

    Tlb dm(8, 1, 1);
    dm.access(5);
    EXPECT_TRUE(dm.invalidate(5));
    EXPECT_FALSE(dm.contains(5));
}

TEST(Tlb, FlushDropsAll)
{
    Tlb tlb(8, 0, 1);
    for (PageNum p = 0; p < 8; ++p)
        tlb.access(p);
    tlb.flush();
    for (PageNum p = 0; p < 8; ++p)
        EXPECT_FALSE(tlb.contains(p));
}

TEST(Tlb, RejectsBadGeometry)
{
    EXPECT_THROW(Tlb(10, 4, 1), FatalError);   // not divisible
    EXPECT_THROW(Tlb(24, 2, 1), FatalError);   // 12 sets: not pow2
    // 0 entries is legal: software-managed translation.
    EXPECT_NO_THROW(Tlb(0, 0, 1));
}

TEST(Tlb, OrganisationNames)
{
    EXPECT_EQ(Tlb(8, 0, 1).organisation(), "FA");
    EXPECT_EQ(Tlb(8, 1, 1).organisation(), "DM");
    EXPECT_EQ(Tlb(8, 2, 1).organisation(), "2way");
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

struct TlbParam
{
    unsigned entries;
    unsigned assoc;
};

class TlbProperty : public ::testing::TestWithParam<TlbParam>
{
};

/** Occupancy: at most 'entries' pages resident at once. */
TEST_P(TlbProperty, OccupancyBounded)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(entries, assoc, 3);
    Rng rng(17);
    for (int i = 0; i < 10000; ++i)
        tlb.access(rng.below(10000));
    unsigned resident = 0;
    for (PageNum p = 0; p < 10000; ++p) {
        if (tlb.contains(p))
            ++resident;
    }
    EXPECT_LE(resident, entries);
}

/** An access always leaves the page resident. */
TEST_P(TlbProperty, AccessedPageIsResident)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(entries, assoc, 3);
    Rng rng(23);
    for (int i = 0; i < 5000; ++i) {
        const PageNum p = rng.below(512);
        tlb.access(p);
        ASSERT_TRUE(tlb.contains(p));
    }
}

/** Larger TLBs of the same organisation never miss more. */
TEST_P(TlbProperty, MonotoneInSize)
{
    const auto [entries, assoc] = GetParam();
    if (assoc > 1)
        GTEST_SKIP() << "monotonicity only guaranteed FA/DM here";
    Tlb small(entries, assoc, 3);
    Tlb big(entries * 4, assoc, 3);
    Rng rng(31);
    // A looping working set (no randomness in the stream).
    for (int i = 0; i < 20000; ++i) {
        const PageNum p = (i * 7) % (entries * 2);
        small.access(p);
        big.access(p);
    }
    EXPECT_LE(big.misses(), small.misses());
}

INSTANTIATE_TEST_SUITE_P(
    Organisations, TlbProperty,
    ::testing::Values(TlbParam{8, 0}, TlbParam{8, 1}, TlbParam{32, 0},
                      TlbParam{32, 1}, TlbParam{64, 2}, TlbParam{128, 0},
                      TlbParam{128, 1}, TlbParam{512, 0}));

// ---------------------------------------------------------------------
// Shadow banks.
// ---------------------------------------------------------------------

TEST(ShadowBank, HasEverySizeInBothOrganisations)
{
    ShadowBank bank(1);
    for (unsigned size : shadowSizes()) {
        EXPECT_NO_THROW(bank.counts(size, 0));
        EXPECT_NO_THROW(bank.counts(size, 1));
    }
    EXPECT_THROW(bank.counts(9999, 0), FatalError);
    EXPECT_THROW(bank.counts(8, 2), FatalError);
}

TEST(ShadowBank, FeedsAllMembers)
{
    ShadowBank bank(1);
    bank.access(42);
    bank.access(42);
    for (unsigned size : shadowSizes()) {
        for (unsigned assoc : {0u, 1u}) {
            const ShadowCounts c = bank.counts(size, assoc);
            EXPECT_EQ(c.demandAccesses, 2u);
            EXPECT_EQ(c.demandMisses, 1u);
        }
    }
}

TEST(ShadowBank, RejectsZeroSizedMember)
{
    EXPECT_THROW(ShadowBank(1, {8, 0, 16}), FatalError);
    EXPECT_NO_THROW(ShadowBank(1, {1, 4}));
}

TEST(ShadowBank, RejectsMoreMembersThanMaskBits)
{
    // Two members per size, one mask bit per member.
    std::vector<unsigned> sizes;
    for (unsigned i = 0; i < ShadowBank::maxMembers / 2; ++i)
        sizes.push_back(1u << i);
    EXPECT_NO_THROW(ShadowBank(1, sizes));
    sizes.push_back(1u << sizes.size());
    EXPECT_THROW(ShadowBank(1, sizes), FatalError);
}

namespace
{

/**
 * Power-of-two direct-mapped members with nested index bits obey
 * inclusion when nothing is invalidated: a page resident in the
 * N-entry member is the last one referenced among those mapping to
 * its set, so it is also resident in the 2N-entry member. A hit at N
 * is a hit at 2N, so the bigger member never misses more.
 */
void
expectDirectMappedInclusion(const ShadowBank &bank,
                            const std::vector<unsigned> &sizes)
{
    for (unsigned n : sizes) {
        if (std::find(sizes.begin(), sizes.end(), 2 * n) == sizes.end())
            continue;
        const ShadowCounts small = bank.counts(n, 1);
        const ShadowCounts big = bank.counts(2 * n, 1);
        EXPECT_GE(small.demandMisses, big.demandMisses) << "DM " << n;
        EXPECT_GE(small.writebackMisses, big.writebackMisses) << "DM " << n;
    }
}

} // namespace

/**
 * The bank's one residency index and same-page memo must count
 * exactly like standalone Tlbs seeded the way the bank seeds its
 * members (`seed + 31 * n`), over long streams: phases with working
 * sets from 4 to 4,096 pages, random and looping, with runs of the
 * same page and both stream classes; default sizes at index shift 0
 * and at a 32-node V-COMA home (shift 5, pages of one home), and a
 * custom size list.
 */
TEST(ShadowBank, MemoMatchesStandaloneMembers)
{
    struct Case
    {
        std::vector<unsigned> sizes;
        unsigned indexShift;
    };
    const Case cases[] = {{shadowSizes(), 0}, {shadowSizes(), 5}, {{1, 4}, 0}};
    for (const Case &c : cases) {
        SCOPED_TRACE("shift " + std::to_string(c.indexShift) + ", " +
                     std::to_string(c.sizes.size()) + " sizes");
        const std::uint64_t seed = 77 + c.indexShift;
        ShadowBank bank(seed, c.sizes, c.indexShift);
        std::vector<Tlb> solo;
        std::uint64_t n = 0;
        for (unsigned entries : c.sizes) {
            solo.emplace_back(entries, 0, seed + 31 * ++n, c.indexShift);
            solo.emplace_back(entries, 1, seed + 31 * ++n, c.indexShift);
        }

        Rng rng(5 + c.indexShift);
        const std::uint64_t home = c.indexShift ? 7 : 0;
        std::uint64_t refs = 0;
        while (refs < 1'000'000) {
            // One phase: a working set of 4..4096 pages, placed at a
            // random base and spread over the high vpn bits too.
            const std::uint64_t ws = 4u << (2 * rng.below(6));
            const std::uint64_t base = rng.below(1 << 20);
            const bool looping = rng.below(2) == 0;
            const std::uint64_t phase = 4 * ws + rng.below(20000);
            for (std::uint64_t i = 0; i < phase;) {
                const std::uint64_t k =
                    base + (looping ? i % ws : rng.below(ws));
                const PageNum vpn = (k << c.indexShift) | home;
                const std::uint64_t run = 1 + rng.below(6);
                for (std::uint64_t r = 0; r < run; ++r, ++i) {
                    const StreamClass cls = rng.below(4) == 0
                                                ? StreamClass::Writeback
                                                : StreamClass::Demand;
                    bank.access(vpn, cls);
                    for (Tlb &tlb : solo)
                        tlb.access(vpn, cls);
                }
            }
            refs += phase;
            expectDirectMappedInclusion(bank, c.sizes);
        }

        for (std::size_t m = 0; m < solo.size(); ++m) {
            const Tlb &b = solo[m];
            const ShadowCounts a = bank.counts(b.entries(), b.assoc());
            SCOPED_TRACE(std::to_string(b.entries()) + " " + b.organisation());
            EXPECT_EQ(a.demandAccesses, b.demandAccesses.value());
            EXPECT_EQ(a.demandMisses, b.demandMisses.value());
            EXPECT_EQ(a.writebackAccesses, b.writebackAccesses.value());
            EXPECT_EQ(a.writebackMisses, b.writebackMisses.value());
        }
    }
}

TEST(ShadowBank, SumAcrossBanks)
{
    std::vector<ShadowBank> banks;
    banks.emplace_back(1);
    banks.emplace_back(2);
    banks[0].access(1);
    banks[1].access(1);
    banks[1].access(2, StreamClass::Writeback);
    ShadowCounts t;
    for (const ShadowBank &bank : banks)
        t += bank.counts(8, 0);
    EXPECT_EQ(t.demandAccesses, 2u);
    EXPECT_EQ(t.demandMisses, 2u);
    EXPECT_EQ(t.writebackMisses, 1u);
    EXPECT_EQ(t.misses(), 3u);
}

/** Bigger shadow members never miss more on a looping stream. */
TEST(ShadowBank, SizeMonotonicityOnLoopingStream)
{
    ShadowBank bank(5);
    for (int i = 0; i < 30000; ++i)
        bank.access((i * 13) % 300);
    std::uint64_t prev = ~std::uint64_t{0};
    for (unsigned size : shadowSizes()) {
        const std::uint64_t misses = bank.counts(size, 0).misses();
        EXPECT_LE(misses, prev) << "size " << size;
        prev = misses;
    }
    expectDirectMappedInclusion(bank, shadowSizes());
}

// ---------------------------------------------------------------------
// Index shift: the DLB set-indexing fix of Figure 6.
// ---------------------------------------------------------------------

/**
 * A home-node DLB only ever sees vpns whose low p bits equal the home
 * id. Without an index shift, a direct-mapped DLB would map them all
 * to one set; with the Figure 6 indexing (skip the p home bits) they
 * spread across the sets.
 */
TEST(TlbIndexShift, DirectMappedDlbSpreadsHomeLocalPages)
{
    const unsigned homeBits = 5;  // 32 nodes
    Tlb naive(8, 1, 3, 0);
    Tlb shifted(8, 1, 3, homeBits);
    // Pages of home 7: vpn = 7, 39, 71, ... (vpn mod 32 == 7).
    for (int sweep = 0; sweep < 10; ++sweep) {
        for (PageNum i = 0; i < 8; ++i) {
            naive.access(7 + 32 * i);
            shifted.access(7 + 32 * i);
        }
    }
    // Naive: all 8 pages fight over one set -> misses every time.
    EXPECT_EQ(naive.demandMisses.value(), 80u);
    // Shifted: each page gets its own set -> cold misses only.
    EXPECT_EQ(shifted.demandMisses.value(), 8u);
}

TEST(TlbIndexShift, InvalidateAndContainsHonourShift)
{
    Tlb tlb(8, 1, 3, 5);
    tlb.access(7 + 32 * 3);
    EXPECT_TRUE(tlb.contains(7 + 32 * 3));
    EXPECT_TRUE(tlb.invalidate(7 + 32 * 3));
    EXPECT_FALSE(tlb.contains(7 + 32 * 3));
}

TEST(TlbIndexShift, FullyAssociativeUnaffected)
{
    Tlb a(8, 0, 3, 0);
    Tlb b(8, 0, 3, 5);
    for (PageNum i = 0; i < 100; ++i) {
        a.access(i * 32 + 7);
        b.access(i * 32 + 7);
    }
    EXPECT_EQ(a.misses(), b.misses());
}

// ---------------------------------------------------------------------
// Differential test against a reference model.
// ---------------------------------------------------------------------

namespace
{

/**
 * Reference model: the Tlb as it was before the same-page memo and
 * the flat fully associative index, with an unordered_map from vpn to
 * slot and no memo. Tlb must agree with it on every operation.
 */
class RefTlb
{
  public:
    RefTlb(unsigned entries, unsigned assoc, std::uint64_t seed,
           unsigned indexShift)
        : entries_(entries), assoc_(assoc), indexShift_(indexShift),
          rng_(seed)
    {
        if (entries_ == 0)
            return;
        if (assoc_ == 0) {
            faSlots_.assign(entries_, Tlb::noVpn);
            resetFree();
        } else {
            numSets_ = entries_ / assoc_;
            saTags_.assign(entries_, Tlb::noVpn);
        }
    }

    bool
    access(PageNum vpn, StreamClass cls, PageNum *evictedOut)
    {
        const bool hit = lookupAndFill(vpn, evictedOut);
        if (cls == StreamClass::Demand) {
            ++demandAccesses;
            demandMisses += !hit;
        } else {
            ++writebackAccesses;
            writebackMisses += !hit;
        }
        return hit;
    }

    bool
    contains(PageNum vpn) const
    {
        if (entries_ == 0)
            return false;
        if (assoc_ == 0)
            return faMap_.count(vpn) != 0;
        const PageNum *base = &saTags_[setBase(vpn)];
        return std::find(base, base + assoc_, vpn) != base + assoc_;
    }

    bool
    invalidate(PageNum vpn)
    {
        if (entries_ == 0)
            return false;
        if (assoc_ == 0) {
            auto it = faMap_.find(vpn);
            if (it == faMap_.end())
                return false;
            faFree_.push_back(it->second);
            faSlots_[it->second] = Tlb::noVpn;
            faMap_.erase(it);
            return true;
        }
        PageNum *base = &saTags_[setBase(vpn)];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w] == vpn) {
                base[w] = Tlb::noVpn;
                return true;
            }
        }
        return false;
    }

    void
    flush()
    {
        faMap_.clear();
        std::fill(faSlots_.begin(), faSlots_.end(), Tlb::noVpn);
        std::fill(saTags_.begin(), saTags_.end(), Tlb::noVpn);
        resetFree();
    }

    std::vector<PageNum>
    sortedEntries() const
    {
        std::vector<PageNum> out;
        for (PageNum vpn : assoc_ == 0 ? faSlots_ : saTags_) {
            if (vpn != Tlb::noVpn)
                out.push_back(vpn);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    std::uint64_t demandAccesses = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t writebackAccesses = 0;
    std::uint64_t writebackMisses = 0;

  private:
    unsigned entries_;
    unsigned assoc_;
    unsigned indexShift_;
    Rng rng_;
    std::unordered_map<PageNum, unsigned> faMap_;
    std::vector<PageNum> faSlots_;
    std::vector<unsigned> faFree_;
    std::vector<PageNum> saTags_;
    unsigned numSets_ = 0;

    void
    resetFree()
    {
        faFree_.clear();
        if (assoc_ != 0)
            return;
        for (unsigned i = 0; i < entries_; ++i)
            faFree_.push_back(entries_ - 1 - i);
    }

    std::size_t
    setBase(PageNum vpn) const
    {
        const auto set = static_cast<unsigned>((vpn >> indexShift_) &
                                               (numSets_ - 1));
        return static_cast<std::size_t>(set) * assoc_;
    }

    bool
    lookupAndFill(PageNum vpn, PageNum *evictedOut)
    {
        *evictedOut = Tlb::noVpn;
        if (entries_ == 0)
            return false;
        if (assoc_ == 0) {
            if (faMap_.count(vpn))
                return true;
            unsigned slot;
            if (!faFree_.empty()) {
                slot = faFree_.back();
                faFree_.pop_back();
            } else {
                slot = static_cast<unsigned>(rng_.below(entries_));
                *evictedOut = faSlots_[slot];
                faMap_.erase(faSlots_[slot]);
            }
            faSlots_[slot] = vpn;
            faMap_[vpn] = slot;
            return false;
        }
        PageNum *base = &saTags_[setBase(vpn)];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w] == vpn)
                return true;
        }
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w] == Tlb::noVpn) {
                base[w] = vpn;
                return false;
            }
        }
        const auto victim = static_cast<unsigned>(rng_.below(assoc_));
        *evictedOut = base[victim];
        base[victim] = vpn;
        return false;
    }
};

std::vector<PageNum>
sortedEntries(const Tlb &tlb)
{
    std::vector<PageNum> out;
    tlb.forEachEntry([&](PageNum vpn) { out.push_back(vpn); });
    std::sort(out.begin(), out.end());
    return out;
}

struct DiffParam
{
    unsigned entries;
    unsigned assoc;
    unsigned indexShift;
};

std::string
diffParamName(const ::testing::TestParamInfo<DiffParam> &info)
{
    const DiffParam &p = info.param;
    return "E" + std::to_string(p.entries) + "A" + std::to_string(p.assoc) +
           "S" + std::to_string(p.indexShift);
}

std::vector<DiffParam>
diffParams()
{
    std::vector<DiffParam> out;
    for (unsigned entries : {0u, 1u, 2u, 3u, 8u, 64u, 512u}) {
        for (unsigned assoc : {0u, 1u, 2u, 4u}) {
            // Set-associative geometries need a power-of-two set count.
            if (assoc != 0 &&
                (entries % assoc != 0 || !isPowerOf2(entries / assoc)))
                continue;
            for (unsigned shift : {0u, 5u})
                out.push_back({entries, assoc, shift});
        }
    }
    return out;
}

} // namespace

class TlbDifferential : public ::testing::TestWithParam<DiffParam>
{
};

/**
 * Random mixes of access (both stream classes), invalidate, contains
 * and flush over a page range a few times the TLB size, with frequent
 * repeats of the previous page so the same-page memo and its resets
 * are exercised. Every result, eviction, counter and the resident set
 * must match the reference after every operation.
 */
TEST_P(TlbDifferential, MatchesReferenceModel)
{
    const DiffParam p = GetParam();
    const std::uint64_t seed = 1000 * p.entries + 10 * p.assoc + p.indexShift;
    Tlb tlb(p.entries, p.assoc, seed, p.indexShift);
    RefTlb ref(p.entries, p.assoc, seed, p.indexShift);
    Rng rng(seed);
    // Pages vary in their high bits too, so both the hash and the
    // shifted set index see varied inputs.
    const std::uint64_t range = 3 * std::max(p.entries, 4u);
    PageNum last = 0;
    for (int op = 0; op < 12000; ++op) {
        const PageNum vpn = rng.below(100) < 40
                                ? last
                                : rng.below(range) * 37 + (rng.below(2) << 40);
        const std::uint64_t kind = rng.below(100);
        if (kind < 80) {
            const StreamClass cls = rng.below(3) == 0 ? StreamClass::Writeback
                                                      : StreamClass::Demand;
            PageNum evA = 0;
            PageNum evB = 0;
            ASSERT_EQ(tlb.access(vpn, cls, &evA), ref.access(vpn, cls, &evB))
                << "op " << op;
            ASSERT_EQ(evA, evB) << "op " << op;
            last = vpn;
        } else if (kind < 92) {
            ASSERT_EQ(tlb.invalidate(vpn), ref.invalidate(vpn)) << "op " << op;
        } else if (kind < 99) {
            ASSERT_EQ(tlb.contains(vpn), ref.contains(vpn)) << "op " << op;
        } else {
            tlb.flush();
            ref.flush();
        }
        ASSERT_EQ(tlb.demandAccesses.value(), ref.demandAccesses);
        ASSERT_EQ(tlb.demandMisses.value(), ref.demandMisses);
        ASSERT_EQ(tlb.writebackAccesses.value(), ref.writebackAccesses);
        ASSERT_EQ(tlb.writebackMisses.value(), ref.writebackMisses);
        ASSERT_EQ(sortedEntries(tlb), ref.sortedEntries()) << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbDifferential,
                         ::testing::ValuesIn(diffParams()), diffParamName);
