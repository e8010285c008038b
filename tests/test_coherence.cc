/**
 * @file
 * Unit tests for the cache/coherence substrate: tag arrays, hit
 * levels, conflict (cross-thread dependency) detection, LLC PM
 * eviction handling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "coherence/cache_array.hh"
#include "coherence/cache_hierarchy.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

// ------------------------------------------------------------ cache array

TEST(CacheArray, MissThenHit)
{
    CacheArray arr(4, 2);
    CacheArray::Victim v;
    EXPECT_FALSE(arr.probe(100, false, true, v)); // miss allocates
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(arr.probe(100, false, true, v));
}

TEST(CacheArray, LruEvictsOldest)
{
    CacheArray arr(1, 2); // one set, two ways
    CacheArray::Victim v;
    arr.probe(1, false, true, v);
    arr.probe(2, false, true, v);
    arr.probe(1, false, true, v); // 2 becomes LRU
    EXPECT_FALSE(arr.probe(3, false, true, v));
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.line, 2u);
}

TEST(CacheArray, HitWithoutRefreshKeepsLruAndDirtyBit)
{
    CacheArray arr(1, 2);
    CacheArray::Victim v;
    arr.probe(1, false, true, v);
    arr.probe(2, false, true, v);
    EXPECT_TRUE(arr.probe(1, true, false, v)); // 1 stays LRU, clean
    EXPECT_FALSE(arr.probe(3, false, true, v));
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.line, 1u);
    EXPECT_FALSE(v.dirty);
}

TEST(CacheArray, DirtyTracking)
{
    CacheArray arr(1, 1);
    CacheArray::Victim v;
    arr.probe(5, false, true, v);
    arr.probe(5, true, true, v); // write marks dirty
    EXPECT_FALSE(arr.probe(6, false, true, v));
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
}

TEST(CacheArray, CleanClearsDirty)
{
    CacheArray arr(1, 1);
    CacheArray::Victim v;
    arr.probe(5, true, true, v); // write miss allocates dirty
    arr.clean(5);
    EXPECT_FALSE(arr.probe(6, false, true, v));
    EXPECT_TRUE(v.valid);
    EXPECT_FALSE(v.dirty);
}

TEST(CacheArray, InvalidateRemoves)
{
    CacheArray arr(2, 2);
    CacheArray::Victim v;
    arr.probe(4, false, true, v);
    arr.invalidate(4);
    EXPECT_EQ(arr.population(), 0u);
    EXPECT_FALSE(arr.probe(4, false, false, v));
    EXPECT_FALSE(v.valid);
}

TEST(CacheArray, SetsAreIndependent)
{
    CacheArray arr(2, 1);
    CacheArray::Victim v;
    arr.probe(0, false, true, v); // set 0
    arr.probe(1, false, true, v); // set 1
    EXPECT_EQ(arr.population(), 2u);
    EXPECT_FALSE(arr.probe(2, false, true, v)); // set 0 again: evicts 0
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.line, 0u);
    EXPECT_TRUE(arr.probe(1, false, false, v)); // 1 untouched
}

TEST(CacheArrayDeath, SetCountMustBeAPowerOfTwo)
{
    EXPECT_EXIT(CacheArray(6, 2), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(CacheArray(0, 2), ::testing::ExitedWithCode(1),
                "sets and ways");
}

/**
 * The tag array as it was before probe(): three calls per level
 * (access, contains, insert), 24-byte entries, modulo set index.
 * Reference for the differential test below.
 */
class RefCacheArray
{
  public:
    RefCacheArray(unsigned sets, unsigned ways)
        : numSets(sets), numWays(ways), entries(sets * ways)
    {
    }

    bool
    access(std::uint64_t line, bool is_write)
    {
        Entry *e = find(line);
        if (!e)
            return false;
        e->lastUse = ++useClock;
        e->dirty = e->dirty || is_write;
        return true;
    }

    bool contains(std::uint64_t line) { return find(line) != nullptr; }

    CacheArray::Victim
    insert(std::uint64_t line, bool dirty)
    {
        Entry *base = &entries[(line % numSets) * numWays];
        Entry *lru = nullptr;
        for (unsigned w = 0; w < numWays; ++w) {
            Entry &e = base[w];
            if (!e.valid) {
                e = Entry{true, dirty, line, ++useClock};
                return CacheArray::Victim{};
            }
            if (!lru || e.lastUse < lru->lastUse)
                lru = &e;
        }
        CacheArray::Victim v{true, lru->line, lru->dirty};
        *lru = Entry{true, dirty, line, ++useClock};
        return v;
    }

    void
    invalidate(std::uint64_t line)
    {
        if (Entry *e = find(line))
            e->valid = false;
    }

    void
    clean(std::uint64_t line)
    {
        if (Entry *e = find(line))
            e->dirty = false;
    }

    std::size_t
    population() const
    {
        std::size_t n = 0;
        for (const Entry &e : entries)
            n += e.valid ? 1 : 0;
        return n;
    }

  private:
    struct Entry
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t line = 0;
        std::uint64_t lastUse = 0;
    };

    Entry *
    find(std::uint64_t line)
    {
        Entry *base = &entries[(line % numSets) * numWays];
        for (unsigned w = 0; w < numWays; ++w) {
            if (base[w].valid && base[w].line == line)
                return &base[w];
        }
        return nullptr;
    }

    unsigned numSets;
    unsigned numWays;
    std::vector<Entry> entries;
    std::uint64_t useClock = 0;
};

TEST(CacheArray, ProbeMatchesAccessContainsInsertReference)
{
    // CacheHierarchy::access used to run access() (only where its walk
    // reached), then contains(), then insert() on a miss, per level.
    // probe() must give the same hit, victim and dirty bit at every
    // step, with clean/invalidate (coherence downgrades) mixed in.
    std::mt19937_64 rng(20);
    std::size_t evictions = 0;
    for (unsigned sets : {1u, 2u, 4u, 8u}) {
        for (unsigned ways = 1; ways <= 4; ++ways) {
            CacheArray arr(sets, ways);
            RefCacheArray ref(sets, ways);
            const std::uint64_t lines = 3 * sets * ways;
            for (int step = 0; step < 3000; ++step) {
                const std::uint64_t line = rng() % lines;
                const unsigned op = rng() % 10;
                if (op == 0) {
                    arr.clean(line);
                    ref.clean(line);
                } else if (op == 1) {
                    arr.invalidate(line);
                    ref.invalidate(line);
                } else {
                    const bool is_write = rng() % 2;
                    const bool refresh = rng() % 4 != 0;
                    const bool want_hit = refresh
                                              ? ref.access(line, is_write)
                                              : ref.contains(line);
                    CacheArray::Victim want;
                    if (!ref.contains(line))
                        want = ref.insert(line, is_write);
                    CacheArray::Victim got;
                    const bool hit =
                        arr.probe(line, is_write, refresh, got);
                    ASSERT_EQ(hit, want_hit)
                        << sets << "x" << ways << " step " << step;
                    ASSERT_EQ(got.valid, want.valid)
                        << sets << "x" << ways << " step " << step;
                    if (want.valid) {
                        ASSERT_EQ(got.line, want.line)
                            << sets << "x" << ways << " step " << step;
                        ASSERT_EQ(got.dirty, want.dirty)
                            << sets << "x" << ways << " step " << step;
                        ++evictions;
                    }
                }
                ASSERT_EQ(arr.population(), ref.population());
            }
        }
    }
    EXPECT_GT(evictions, 10000u);
}

// -------------------------------------------------------- cache hierarchy

struct CacheFixture : public ::testing::Test
{
    SimConfig cfg;
    StatSet stats;

    CacheFixture()
    {
        setLogQuiet(true);
        // Small caches so misses are easy to force.
        cfg.l1Sets = 4;
        cfg.l1Ways = 2;
        cfg.l2Sets = 8;
        cfg.l2Ways = 2;
        cfg.llcSets = 16;
        cfg.llcWays = 2;
    }
};

TEST_F(CacheFixture, LatencyLaddersByLevel)
{
    CacheHierarchy ch(cfg, stats);
    // Cold: PM fill.
    CacheAccess a = ch.access(0, 100, false, true);
    EXPECT_EQ(a.latency, cfg.pmReadLatency);
    // Warm: L1 hit.
    a = ch.access(0, 100, false, true);
    EXPECT_EQ(a.latency, cfg.l1Latency);
}

TEST_F(CacheFixture, VolatileMissUsesDram)
{
    CacheHierarchy ch(cfg, stats);
    CacheAccess a = ch.access(0, 100, false, false);
    EXPECT_EQ(a.latency, cfg.dramLatency);
}

TEST_F(CacheFixture, SharedLlcServesOtherCores)
{
    CacheHierarchy ch(cfg, stats);
    ch.access(0, 100, false, true);      // core 0 fills LLC
    CacheAccess a = ch.access(1, 100, false, true);
    EXPECT_EQ(a.latency, cfg.llcLatency) << "core 1 hits shared LLC";
}

TEST_F(CacheFixture, WriteThenRemoteReadConflicts)
{
    CacheHierarchy ch(cfg, stats);
    ch.access(0, 100, true, true);
    CacheAccess a = ch.access(1, 100, false, true);
    EXPECT_TRUE(a.conflict);
    EXPECT_EQ(a.srcThread, 0u);
    EXPECT_EQ(a.latency, cfg.cacheToCacheLatency);
}

TEST_F(CacheFixture, ReadDowngradeStopsFurtherConflicts)
{
    CacheHierarchy ch(cfg, stats);
    ch.access(0, 100, true, true);
    ch.access(1, 100, false, true); // conflict, downgrades
    CacheAccess a = ch.access(2, 100, false, true);
    EXPECT_FALSE(a.conflict) << "line no longer modified";
}

TEST_F(CacheFixture, WriteAfterRemoteWriteConflicts)
{
    CacheHierarchy ch(cfg, stats);
    ch.access(0, 100, true, true);
    CacheAccess a = ch.access(1, 100, true, true);
    EXPECT_TRUE(a.conflict);
    EXPECT_EQ(a.srcThread, 0u);
    EXPECT_EQ(ch.lastWriter(100), 1);
}

TEST_F(CacheFixture, SelfAccessNeverConflicts)
{
    CacheHierarchy ch(cfg, stats);
    ch.access(0, 100, true, true);
    CacheAccess a = ch.access(0, 100, true, true);
    EXPECT_FALSE(a.conflict);
}

TEST_F(CacheFixture, CleanLineStopsConflict)
{
    CacheHierarchy ch(cfg, stats);
    ch.access(0, 100, true, true);
    ch.cleanLine(0, 100); // clwb semantics
    CacheAccess a = ch.access(1, 100, false, true);
    EXPECT_FALSE(a.conflict);
}

TEST_F(CacheFixture, LlcDirtyEvictionReported)
{
    CacheHierarchy ch(cfg, stats);
    bool filter_called = false;
    ch.setEvictFilter([&](std::uint64_t) {
        filter_called = true;
        return false;
    });
    // Write many distinct PM lines mapping to one LLC set to force a
    // dirty eviction (LLC has 16 sets x 2 ways here).
    for (std::uint64_t i = 0; i < 8; ++i)
        ch.access(0, i * 16, true, true);
    EXPECT_GT(stats.get("cache.llcDirtyEvicts"), 0u);
    EXPECT_TRUE(filter_called);
}

TEST_F(CacheFixture, EvictFilterDelayCounted)
{
    CacheHierarchy ch(cfg, stats);
    ch.setEvictFilter([](std::uint64_t) { return true; });
    for (std::uint64_t i = 0; i < 8; ++i)
        ch.access(0, i * 16, true, true);
    EXPECT_GT(stats.get("cache.llcEvictDelayed"), 0u);
}

TEST_F(CacheFixture, LastWriterUnknownInitially)
{
    CacheHierarchy ch(cfg, stats);
    EXPECT_EQ(ch.lastWriter(999), -1);
}

} // namespace
} // namespace asap
