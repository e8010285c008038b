/**
 * @file
 * Unit tests for the simulation kernel: event queue, RNG, stats,
 * configuration, and the flat hash map of the memory system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/nvm_contents.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace asap
{
namespace
{

// ----------------------------------------------------------------- ticks

TEST(Ticks, NsConversionRoundsUp)
{
    EXPECT_EQ(nsToTicks(1), 2u);     // 2 GHz
    EXPECT_EQ(nsToTicks(60), 120u);  // persist-buffer flush
    EXPECT_EQ(nsToTicks(175), 350u); // PM read
    EXPECT_EQ(nsToTicks(90), 180u);  // PM write
    EXPECT_EQ(nsToTicks(0.6), 2u);   // rounds up
}

TEST(Ticks, RoundTrip)
{
    EXPECT_DOUBLE_EQ(ticksToNs(350), 175.0);
    EXPECT_DOUBLE_EQ(ticksToNs(0), 0.0);
}

// ----------------------------------------------------------- event queue

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&]() {
        if (++fired < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, LimitStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(100, [&]() { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearDropsEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.clear();
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.schedule(2, [&]() { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, []() {}), "past");
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differed = false;
    for (int i = 0; i < 10; ++i)
        differed = differed || (a.next() != b.next());
    EXPECT_TRUE(differed);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo = saw_lo || v == 5;
        saw_hi = saw_hi || v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng r(99);
    std::uint64_t first = r.next();
    r.next();
    r.reseed(99);
    EXPECT_EQ(r.next(), first);
}

// ----------------------------------------------------------------- stats

TEST(Stats, CountersStartAtZero)
{
    StatSet s;
    EXPECT_EQ(s.get("nothing"), 0u);
    s.inc("x");
    s.inc("x", 4);
    EXPECT_EQ(s.get("x"), 5u);
}

TEST(Stats, MaxToKeepsMaximum)
{
    StatSet s;
    s.maxTo("m", 5);
    s.maxTo("m", 3);
    EXPECT_EQ(s.get("m"), 5u);
    s.maxTo("m", 9);
    EXPECT_EQ(s.get("m"), 9u);
}

TEST(Stats, DistributionMeanMax)
{
    Distribution d(100);
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_EQ(d.max(), 30u);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Stats, DistributionWeighted)
{
    Distribution d(100);
    d.sample(10, 3);
    d.sample(50, 1);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_EQ(d.count(), 4u);
}

TEST(Stats, DistributionPercentile)
{
    Distribution d(100);
    for (std::uint64_t v = 1; v <= 100; ++v)
        d.sample(v);
    EXPECT_EQ(d.percentile(50.0), 50u);
    EXPECT_EQ(d.percentile(99.0), 99u);
    EXPECT_EQ(d.percentile(100.0), 100u);
}

TEST(Stats, DistributionClampsOversizedSamples)
{
    Distribution d(10);
    d.sample(1000);
    EXPECT_EQ(d.percentile(99.0), 10u);
    EXPECT_EQ(d.max(), 1000u); // max tracks the true value
}

TEST(Stats, DistributionEmpty)
{
    Distribution d(10);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.percentile(99.0), 0u);
}

TEST(Stats, DumpContainsEntries)
{
    StatSet s;
    s.inc("alpha", 7);
    s.dist("occ", 32).sample(3);
    const std::string text = s.dump();
    EXPECT_NE(text.find("alpha 7"), std::string::npos);
    EXPECT_NE(text.find("occ::mean"), std::string::npos);
}

TEST(Stats, ResetClears)
{
    StatSet s;
    s.inc("a");
    s.dist("d").sample(1);
    s.reset();
    EXPECT_EQ(s.get("a"), 0u);
    EXPECT_FALSE(s.hasDist("d"));
}

// ---------------------------------------------------------------- config

TEST(Config, DefaultsMatchTableII)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.numCores, 4u);
    EXPECT_EQ(cfg.numMCs, 2u);
    EXPECT_EQ(cfg.pbEntries, 32u);
    EXPECT_EQ(cfg.etEntries, 32u);
    EXPECT_EQ(cfg.rtEntries, 32u);
    EXPECT_EQ(cfg.wpqEntries, 16u);
    EXPECT_EQ(cfg.pmReadLatency, nsToTicks(175));
    EXPECT_EQ(cfg.pmWriteLatency, nsToTicks(90));
    EXPECT_EQ(cfg.pbFlushLatency, nsToTicks(60));
    EXPECT_EQ(cfg.hopsPollPeriod, 500u);
    EXPECT_EQ(cfg.hopsPollCost, 50u);
}

TEST(Config, OverrideParsesKeys)
{
    SimConfig cfg;
    cfg.override("numCores=8");
    cfg.override("model=hops");
    cfg.override("persistency=ep");
    cfg.override("rtEntries=64");
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.model, ModelKind::Hops);
    EXPECT_EQ(cfg.persistency, PersistencyModel::Epoch);
    EXPECT_EQ(cfg.rtEntries, 64u);
}

TEST(Config, TryParseUnsignedChecksTheWholeValue)
{
    // Config keys and every bench's numeric flags parse through this.
    std::uint32_t narrow = 77;
    for (const char *bad : {"", "12x", "-1", " 5", "4294967296", "+3"}) {
        EXPECT_FALSE(tryParseUnsigned(bad, narrow)) << '"' << bad << '"';
        EXPECT_EQ(narrow, 77u) << '"' << bad << '"';
    }
    EXPECT_TRUE(tryParseUnsigned("0x10", narrow));
    EXPECT_EQ(narrow, 16u);
    EXPECT_TRUE(tryParseUnsigned("4294967295", narrow));
    EXPECT_EQ(narrow, 4294967295u);

    std::uint64_t wide = 0;
    EXPECT_TRUE(tryParseUnsigned("4294967296", wide));
    EXPECT_EQ(wide, 4294967296u);
    EXPECT_FALSE(tryParseUnsigned("18446744073709551616", wide));
    EXPECT_TRUE(tryParseUnsigned("0", wide));
    EXPECT_EQ(wide, 0u);
}

TEST(ConfigDeath, UnknownKeyIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(cfg.override("bogusKey=1"), "unknown config key");
}

TEST(ConfigDeath, MissingEqualsIsFatal)
{
    SimConfig cfg;
    EXPECT_DEATH(cfg.override("numCores"), "key=value");
}

TEST(ConfigDeath, TrailingCharactersAreFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(cfg.override("llcSets=16k"), ::testing::ExitedWithCode(1),
                "llcSets.*16k");
    EXPECT_EXIT(cfg.override("mediaWriteGBps=2.5GB"),
                ::testing::ExitedWithCode(1), "mediaWriteGBps");
}

TEST(ConfigDeath, ValueWiderThanItsFieldIsFatal)
{
    SimConfig cfg;
    // 2^32 + 16: wrapped into the 32-bit field it would read 16.
    EXPECT_EXIT(cfg.override("llcSets=4294967312"),
                ::testing::ExitedWithCode(1), "llcSets");
    EXPECT_EXIT(cfg.override("seed=18446744073709551616"),
                ::testing::ExitedWithCode(1), "seed");
    EXPECT_EXIT(cfg.override("mediaWriteGBps=1e999"),
                ::testing::ExitedWithCode(1), "mediaWriteGBps");
}

TEST(ConfigDeath, NegativeOrEmptyValueIsFatal)
{
    SimConfig cfg;
    EXPECT_EXIT(cfg.override("llcSets=-1"), ::testing::ExitedWithCode(1),
                "llcSets");
    EXPECT_EXIT(cfg.override("llcSets="), ::testing::ExitedWithCode(1),
                "llcSets");
    EXPECT_EXIT(cfg.override("llcSets= 16"), ::testing::ExitedWithCode(1),
                "llcSets");
    EXPECT_EXIT(cfg.override("mediaWriteGBps=-1"),
                ::testing::ExitedWithCode(1), "mediaWriteGBps");
    EXPECT_EXIT(cfg.override("mediaWriteGBps=nan"),
                ::testing::ExitedWithCode(1), "mediaWriteGBps");
    EXPECT_EXIT(cfg.override("mediaWriteGBps="),
                ::testing::ExitedWithCode(1), "mediaWriteGBps");
}

TEST(Config, OverrideAcceptsEveryValueThatFits)
{
    SimConfig cfg;
    cfg.override("llcSets=0x40");
    EXPECT_EQ(cfg.llcSets, 64u);
    cfg.override("llcSets=4294967295");
    EXPECT_EQ(cfg.llcSets, 4294967295u);
    cfg.override("seed=18446744073709551615");
    EXPECT_EQ(cfg.seed, 18446744073709551615ull);
    cfg.override("mediaWriteGBps=.5");
    EXPECT_DOUBLE_EQ(cfg.mediaWriteGBps, 0.5);
    cfg.override("mediaWriteGBps=0");
    EXPECT_DOUBLE_EQ(cfg.mediaWriteGBps, 0.0);
}

// -------------------------------------------------------------- flat map

/** Keys whose home slot in a table of @p slots is one of the last
 *  two: they collide with each other and their probe runs wrap
 *  around the end of the table. */
std::vector<std::uint64_t>
wrappingKeys(std::size_t slots, std::size_t n)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 1; out.size() < n; ++k) {
        if ((FlatMap<int>::hash(k) & (slots - 1)) >= slots - 2)
            out.push_back(k);
    }
    return out;
}

TEST(FlatMap, MatchesUnorderedMapReference)
{
    // A seeded mix of insert, assign, find, erase and clear against
    // std::unordered_map, from a pool of keys that collide and wrap at
    // every table size the map grows through, plus random 64-bit keys.
    std::vector<std::uint64_t> pool;
    for (std::size_t slots = FlatMap<int>::kMinSlots; slots <= 1024;
         slots *= 2) {
        for (std::uint64_t k : wrappingKeys(slots, 24))
            pool.push_back(k);
    }
    std::mt19937_64 rng(99);
    for (int i = 0; i < 300; ++i)
        pool.push_back(rng() >> 1); // never ~0

    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::size_t maxCapacity = 0;
    for (int step = 0; step < 60000; ++step) {
        const std::uint64_t key = pool[rng() % pool.size()];
        const unsigned op = rng() % 100;
        if (op < 45) {
            const std::uint64_t value = rng();
            map[key] = value;
            ref[key] = value;
        } else if (op < 60) {
            ++map[key]; // read-modify-write, inserting 0 first if absent
            ++ref[key];
        } else if (op < 85) {
            const std::uint64_t *got = map.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
            if (got) {
                ASSERT_EQ(*got, it->second) << "step " << step;
            }
        } else {
            ASSERT_EQ(map.erase(key), ref.erase(key) == 1)
                << "step " << step;
        }
        if (step % 20000 == 19999) {
            map.clear();
            ref.clear();
        }
        ASSERT_EQ(map.size(), ref.size()) << "step " << step;
        maxCapacity = std::max(maxCapacity, map.capacity());
        if (step % 500 == 0) {
            std::size_t seen = 0;
            map.forEach([&](std::uint64_t k, std::uint64_t v) {
                ++seen;
                auto it = ref.find(k);
                ASSERT_NE(it, ref.end()) << "step " << step;
                EXPECT_EQ(v, it->second) << "step " << step;
            });
            ASSERT_EQ(seen, ref.size()) << "step " << step;
            for (const auto &[k, v] : ref) {
                const std::uint64_t *got = map.find(k);
                ASSERT_NE(got, nullptr) << "step " << step;
                EXPECT_EQ(*got, v);
            }
        }
        // Load never exceeds 3/4 of the slots.
        ASSERT_LE(map.size() * 4, map.capacity() * 3);
    }
    EXPECT_GE(maxCapacity, 512u) << "the sequence must grow the table";
}

TEST(FlatMapDeath, EmptyKeyCannotBeStored)
{
    FlatMap<int> map;
    EXPECT_DEATH(map[FlatMap<int>::kEmptyKey] = 1, "~0");
}

TEST(FlatMap, FindOfEmptyKeyIsNull)
{
    // ~0 marks an empty slot, so a probe for it must not stop at the
    // first empty slot and report that slot as a live entry.
    constexpr std::uint64_t kEmpty = FlatMap<std::uint64_t>::kEmptyKey;
    FlatMap<std::uint64_t> map;
    EXPECT_EQ(map.find(kEmpty), nullptr);
    map[5] = 7;
    EXPECT_EQ(map.find(kEmpty), nullptr);
    EXPECT_EQ(std::as_const(map).find(kEmpty), nullptr);
    EXPECT_FALSE(map.erase(kEmpty));
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(5), nullptr);
    EXPECT_EQ(*map.find(5), 7u);

    // The NVM image answers "was this line ever written" from find().
    NvmContents nvm;
    EXPECT_FALSE(nvm.present(kEmpty));
    nvm.write(100, 11);
    EXPECT_FALSE(nvm.present(kEmpty));
    EXPECT_EQ(nvm.read(kEmpty), 0u);
    EXPECT_TRUE(nvm.present(100));
}

TEST(FlatMap, ReserveKeepsEntriesAndSkipsRehash)
{
    FlatMap<std::uint64_t> map;
    map.reserve(0);
    EXPECT_EQ(map.capacity(), 0u);
    map[3] = 30;
    map.reserve(100);
    const std::size_t cap = map.capacity();
    EXPECT_GE(cap * 3, 100u * 4);
    for (std::uint64_t k = 10; k < 109; ++k)
        map[k] = k;
    EXPECT_EQ(map.capacity(), cap) << "100 entries fit the reservation";
    EXPECT_EQ(map.size(), 100u);
    ASSERT_NE(map.find(3), nullptr);
    EXPECT_EQ(*map.find(3), 30u);
}

TEST(Config, ModelNames)
{
    EXPECT_EQ(parseModelKind("baseline"), ModelKind::Baseline);
    EXPECT_EQ(parseModelKind("bbb"), ModelKind::Eadr);
    EXPECT_EQ(parseModelKind("ideal"), ModelKind::Eadr);
    EXPECT_EQ(toString(ModelKind::Asap), "asap");
    EXPECT_EQ(toString(PersistencyModel::Epoch), "ep");
}

} // namespace
} // namespace asap
