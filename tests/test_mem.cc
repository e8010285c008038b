/**
 * @file
 * Unit tests for the memory substrate: address interleaving, WPQ,
 * XPBuffer, NVM contents and the memory controller's timing and
 * crash behaviour.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <random>
#include <unordered_map>

#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "mem/nvm_contents.hh"
#include "mem/wpq.hh"
#include "mem/xpbuffer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

// ----------------------------------------------------------- address map

TEST(AddressMap, InterleavesAtGrain)
{
    AddressMap amap(2, 256); // 256 B = 4 lines per grain
    EXPECT_EQ(amap.mcFor(0), 0u);
    EXPECT_EQ(amap.mcFor(3), 0u);
    EXPECT_EQ(amap.mcFor(4), 1u);
    EXPECT_EQ(amap.mcFor(7), 1u);
    EXPECT_EQ(amap.mcFor(8), 0u);
}

TEST(AddressMap, SingleMc)
{
    AddressMap amap(1, 256);
    for (std::uint64_t l = 0; l < 100; ++l)
        EXPECT_EQ(amap.mcFor(l), 0u);
}

TEST(AddressMap, FourWay)
{
    AddressMap amap(4, 64); // line-grained across 4 MCs
    EXPECT_EQ(amap.mcFor(0), 0u);
    EXPECT_EQ(amap.mcFor(1), 1u);
    EXPECT_EQ(amap.mcFor(2), 2u);
    EXPECT_EQ(amap.mcFor(3), 3u);
    EXPECT_EQ(amap.mcFor(4), 0u);
}

TEST(AddressMap, BalancedDistribution)
{
    AddressMap amap(2, 256);
    unsigned counts[2] = {0, 0};
    for (std::uint64_t l = 0; l < 1024; ++l)
        ++counts[amap.mcFor(l)];
    EXPECT_EQ(counts[0], counts[1]);
}

// ------------------------------------------------------------------- wpq

TEST(Wpq, InsertAndDrainFifo)
{
    Wpq w(4);
    EXPECT_EQ(w.insert(1, 10), Wpq::Insert::Queued);
    EXPECT_EQ(w.insert(2, 20), Wpq::Insert::Queued);
    EXPECT_EQ(w.front().line, 1u);
    w.pop();
    EXPECT_EQ(w.front().line, 2u);
    w.pop();
    EXPECT_TRUE(w.empty());
}

TEST(Wpq, CoalescesSameLine)
{
    Wpq w(4);
    w.insert(7, 100);
    EXPECT_EQ(w.insert(7, 200), Wpq::Insert::Coalesced);
    EXPECT_EQ(w.size(), 1u);
    ASSERT_NE(w.pendingValue(7), nullptr);
    EXPECT_EQ(*w.pendingValue(7), 200u);
}

TEST(Wpq, FullRejects)
{
    Wpq w(2);
    w.insert(1, 1);
    w.insert(2, 2);
    EXPECT_EQ(w.insert(3, 3), Wpq::Insert::Full);
    EXPECT_TRUE(w.full());
    // Coalescing still works when full.
    EXPECT_EQ(w.insert(1, 9), Wpq::Insert::Coalesced);
}

TEST(Wpq, ExtraLatencyKeepsMax)
{
    Wpq w(4);
    w.insert(5, 1, 100);
    w.insert(5, 2, 40);
    EXPECT_EQ(w.front().extraLatency, 100u);
    w.insert(6, 3, 7);
    w.pop();
    EXPECT_EQ(w.front().extraLatency, 7u);
}

TEST(Wpq, DrainAllReturnsEverything)
{
    Wpq w(8);
    w.insert(1, 10);
    w.insert(2, 20);
    auto drained = w.drainAll();
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].first, 1u);
    EXPECT_EQ(drained[1].second, 20u);
    EXPECT_TRUE(w.empty());
}

TEST(Wpq, PointerStabilityUnderChurn)
{
    Wpq w(16);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        if (w.full())
            w.pop();
        w.insert(i % 24, i);
        if (w.contains(i % 24)) {
            EXPECT_EQ(*w.pendingValue(i % 24), i);
        }
    }
}

// -------------------------------------------------------------- xpbuffer

TEST(XpBuffer, HitAfterTouch)
{
    XpBuffer xp(4);
    EXPECT_FALSE(xp.hit(1));
    xp.touch(1);
    EXPECT_TRUE(xp.hit(1));
}

TEST(XpBuffer, LruEviction)
{
    XpBuffer xp(2);
    xp.touch(1);
    xp.touch(2);
    xp.touch(3); // evicts 1
    EXPECT_FALSE(xp.hit(1));
    EXPECT_TRUE(xp.hit(2));
    EXPECT_TRUE(xp.hit(3));
}

TEST(XpBuffer, TouchRefreshesRecency)
{
    XpBuffer xp(2);
    xp.touch(1);
    xp.touch(2);
    xp.touch(1); // 2 is now LRU
    xp.touch(3); // evicts 2
    EXPECT_TRUE(xp.hit(1));
    EXPECT_FALSE(xp.hit(2));
}

TEST(XpBuffer, ZeroCapacityNeverHits)
{
    XpBuffer xp(0);
    xp.touch(1);
    EXPECT_FALSE(xp.hit(1));
}

/** The XPBuffer as it was before the node array: a std::list in
 *  recency order plus a hash map from line to list position. */
class RefXpBuffer
{
  public:
    explicit RefXpBuffer(unsigned capacity) : cap(capacity) {}

    void
    touch(std::uint64_t line)
    {
        if (cap == 0)
            return;
        auto it = index.find(line);
        if (it != index.end()) {
            lru.erase(it->second);
        } else if (lru.size() >= cap) {
            index.erase(lru.back());
            lru.pop_back();
        }
        lru.push_front(line);
        index[line] = lru.begin();
    }

    bool hit(std::uint64_t line) const { return index.count(line) != 0; }
    std::size_t size() const { return lru.size(); }

  private:
    unsigned cap;
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index;
};

TEST(XpBuffer, MatchesListAndMapReference)
{
    std::mt19937_64 rng(7);
    for (unsigned cap : {0u, 1u, 2u, 7u, 64u}) {
        XpBuffer xp(cap);
        RefXpBuffer ref(cap);
        // Lines from a range twice the capacity (plus a few), skewed
        // towards its low end so recent lines come back before and
        // after they are evicted.
        const std::uint64_t lines = 2 * cap + 3;
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t line =
                rng() % 2 ? rng() % lines : rng() % (cap / 2 + 1);
            xp.touch(line);
            ref.touch(line);
            ASSERT_EQ(xp.size(), ref.size()) << cap << " step " << step;
            for (std::uint64_t l = 0; l < lines; ++l)
                ASSERT_EQ(xp.hit(l), ref.hit(l))
                    << cap << " step " << step << " line " << l;
        }
    }
}

// ---------------------------------------------------------- nvm contents

TEST(NvmContents, ReadBackAndPresence)
{
    NvmContents nvm;
    EXPECT_EQ(nvm.read(42), 0u);
    EXPECT_FALSE(nvm.present(42));
    nvm.write(42, 7);
    EXPECT_EQ(nvm.read(42), 7u);
    EXPECT_TRUE(nvm.present(42));
    nvm.write(42, 9);
    EXPECT_EQ(nvm.read(42), 9u);
}

// ------------------------------------------------------ memory controller

struct McFixture : public ::testing::Test
{
    SimConfig cfg;
    EventQueue eq;
    NvmContents media;
    StatSet stats;

    McFixture() { setLogQuiet(true); }

    MemoryController
    make(unsigned id = 0)
    {
        return MemoryController(id, cfg, eq, media, stats);
    }
};

TEST_F(McFixture, SafeFlushPersistsAndAcks)
{
    MemoryController mc = make();
    bool acked = false;
    mc.receiveFlush(FlushPacket{10, 77, 0, 1, false},
                    [&](FlushReply r) {
                        acked = true;
                        EXPECT_EQ(r, FlushReply::Ack);
                    });
    eq.run();
    EXPECT_TRUE(acked);
    EXPECT_EQ(media.read(10), 77u);
    EXPECT_EQ(stats.get("mc.pmWrites"), 1u);
}

TEST_F(McFixture, AckWaitsForWpqSpace)
{
    cfg.wpqEntries = 2;
    cfg.nvmBanks = 1;
    MemoryController mc = make();
    unsigned acks = 0;
    for (std::uint64_t i = 0; i < 6; ++i) {
        mc.receiveFlush(FlushPacket{100 + i, i, 0, 1, false},
                        [&](FlushReply) { ++acks; });
    }
    // Some flushes must wait for WPQ drain before being accepted.
    EXPECT_LT(acks, 6u);
    eq.run();
    EXPECT_EQ(acks, 6u);
    EXPECT_EQ(stats.get("mc.pmWrites"), 6u);
    EXPECT_GT(stats.get("mc.wpqFullStalls"), 0u);
}

TEST_F(McFixture, WpqCoalescingReducesMediaWrites)
{
    cfg.nvmBanks = 1;
    MemoryController mc = make();
    for (int i = 0; i < 4; ++i) {
        mc.receiveFlush(FlushPacket{55, std::uint64_t(i), 0, 1, false},
                        [](FlushReply) {});
    }
    eq.run();
    EXPECT_EQ(media.read(55), 3u); // latest value
    EXPECT_LT(stats.get("mc.pmWrites"), 4u);
    EXPECT_GT(stats.get("mc.wpqCoalesced"), 0u);
}

TEST_F(McFixture, EarlyFlushWithoutPolicyPanics)
{
    MemoryController mc = make();
    EXPECT_DEATH(mc.receiveFlush(FlushPacket{1, 1, 0, 1, true},
                                 [](FlushReply) {}),
                 "no.*recovery policy|recovery policy");
}

TEST_F(McFixture, CrashDrainsWpqToMedia)
{
    cfg.nvmBanks = 1;
    cfg.pmWriteLatency = 100000; // writes never retire on their own
    MemoryController mc = make();
    for (std::uint64_t i = 0; i < 4; ++i) {
        mc.receiveFlush(FlushPacket{200 + i, 900 + i, 0, 1, false},
                        [](FlushReply) {});
    }
    // Run a moment so packets enter the WPQ but not the media.
    eq.run(1000);
    mc.crash();
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(media.read(200 + i), 900 + i);
}

TEST_F(McFixture, DurableValuePrefersWpq)
{
    cfg.pmWriteLatency = 100000;
    cfg.nvmBanks = 1;
    media.write(5, 1);
    MemoryController mc = make();
    mc.receiveFlush(FlushPacket{5, 2, 0, 1, false}, [](FlushReply) {});
    eq.run(10); // enough to insert, not to retire (bank issue is
                // instantaneous, so the media may already be updated)
    EXPECT_EQ(mc.durableValue(5), 2u);
}

TEST_F(McFixture, BankParallelismBoundsThroughput)
{
    cfg.nvmBanks = 2;
    cfg.wpqEntries = 16;
    MemoryController mc = make();
    for (std::uint64_t i = 0; i < 8; ++i)
        mc.receiveFlush(FlushPacket{300 + i, i, 0, 1, false},
                        [](FlushReply) {});
    eq.run();
    // 8 writes over 2 banks at 180 cycles each: at least 4 service
    // slots back to back.
    EXPECT_GE(eq.now(), 4 * cfg.pmWriteLatency);
}

} // namespace
} // namespace asap
