/**
 * @file
 * Unit tests for the persist-path structures: counting Bloom filter,
 * epoch table, persist buffer.
 */

#include <gtest/gtest.h>

#include "mem/memory_controller.hh"
#include "persist/bloom_filter.hh"
#include "persist/epoch_table.hh"
#include "persist/persist_buffer.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

// ------------------------------------------------------------ bloom

TEST(Bloom, NoFalseNegatives)
{
    CountingBloom bloom(512, 3);
    for (std::uint64_t i = 0; i < 100; ++i)
        bloom.insert(i * 977);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_TRUE(bloom.test(i * 977));
}

TEST(Bloom, RemoveClears)
{
    CountingBloom bloom(512, 3);
    bloom.insert(42);
    EXPECT_TRUE(bloom.test(42));
    bloom.remove(42);
    EXPECT_FALSE(bloom.test(42));
    EXPECT_EQ(bloom.population(), 0u);
}

TEST(Bloom, CountingSupportsDuplicates)
{
    CountingBloom bloom(512, 3);
    bloom.insert(7);
    bloom.insert(7);
    bloom.remove(7);
    EXPECT_TRUE(bloom.test(7)) << "one insertion remains";
    bloom.remove(7);
    EXPECT_FALSE(bloom.test(7));
}

TEST(Bloom, LowFalsePositiveRateWhenSparse)
{
    CountingBloom bloom(4096, 3);
    for (std::uint64_t i = 0; i < 32; ++i)
        bloom.insert(i);
    unsigned fps = 0;
    for (std::uint64_t probe = 1000; probe < 2000; ++probe)
        fps += bloom.test(probe) ? 1 : 0;
    EXPECT_LT(fps, 20u);
}

TEST(BloomDeath, RemoveFromEmptyPanics)
{
    CountingBloom bloom(64, 2);
    EXPECT_DEATH(bloom.remove(1), "empty");
}

// ------------------------------------------------------ epoch table

struct EtFixture : public ::testing::Test
{
    StatSet stats;
    EpochTable et{0, 8, stats};
    std::vector<std::uint64_t> committable;

    EtFixture()
    {
        setLogQuiet(true);
        et.setCommittableHook(
            [this](std::uint64_t ts) { committable.push_back(ts); });
    }
};

TEST_F(EtFixture, StartsWithEpochOne)
{
    EXPECT_EQ(et.currentEpoch(), 1u);
    EXPECT_EQ(et.size(), 1u);
    EXPECT_EQ(et.lastCommitted(), 0u);
}

TEST_F(EtFixture, CloseOpensNext)
{
    bool done = false;
    et.closeEpoch(false, [&]() { done = true; });
    EXPECT_TRUE(done);
    EXPECT_EQ(et.currentEpoch(), 2u);
    // Epoch 1 had no writes: closed + complete + safe => committable.
    ASSERT_EQ(committable.size(), 1u);
    EXPECT_EQ(committable[0], 1u);
}

TEST_F(EtFixture, WritesDelayCompletion)
{
    et.addWrite(1);
    et.addWrite(1);
    et.closeEpoch(false, []() {});
    EXPECT_TRUE(committable.empty());
    et.ackWrite(1);
    EXPECT_TRUE(committable.empty());
    et.ackWrite(1);
    ASSERT_EQ(committable.size(), 1u);
    EXPECT_EQ(committable[0], 1u);
}

TEST_F(EtFixture, CommitInOrderOnly)
{
    et.closeEpoch(false, []() {});
    et.closeEpoch(false, []() {});
    // Epoch 1 committable fired; commit it and epoch 2 follows.
    ASSERT_FALSE(committable.empty());
    et.markCommitted(1);
    EXPECT_EQ(et.lastCommitted(), 1u);
    ASSERT_EQ(committable.size(), 2u);
    EXPECT_EQ(committable[1], 2u);
}

TEST_F(EtFixture, IsSafeOnlyForOldest)
{
    et.addWrite(1);
    et.closeEpoch(false, []() {});
    et.addWrite(2);
    EXPECT_TRUE(et.isSafe(1));
    EXPECT_FALSE(et.isSafe(2));
    et.ackWrite(1);
    et.markCommitted(1);
    EXPECT_TRUE(et.isSafe(1)) << "committed epochs stay safe";
    EXPECT_TRUE(et.isSafe(2));
}

TEST_F(EtFixture, DependencyBlocksSafety)
{
    et.closeEpoch(true, []() {});
    et.markCommitted(1);
    committable.clear();
    et.openDependentEpoch(3, 9);
    et.addWrite(2);
    EXPECT_FALSE(et.isSafe(2));
    et.ackWrite(2);
    et.closeEpoch(true, []() {});
    EXPECT_TRUE(committable.empty()) << "dependency unresolved";
    et.resolveDependency(3, 9);
    ASSERT_EQ(committable.size(), 1u);
    EXPECT_EQ(committable[0], 2u);
}

TEST_F(EtFixture, DependentsReturnedOnCommit)
{
    et.addWrite(1);
    EXPECT_FALSE(et.registerDependent(5, 1));
    et.ackWrite(1);
    et.closeEpoch(false, []() {});
    auto deps = et.markCommitted(1);
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0], 5u);
}

TEST_F(EtFixture, RegisterOnCommittedReturnsTrue)
{
    et.closeEpoch(false, []() {});
    et.markCommitted(1);
    EXPECT_TRUE(et.registerDependent(5, 1));
}

TEST_F(EtFixture, DfenceWaitsForAllCommits)
{
    et.addWrite(1);
    et.closeEpoch(false, []() {});
    bool released = false;
    et.waitAllCommitted([&]() { released = true; });
    EXPECT_FALSE(released);
    et.ackWrite(1);
    et.markCommitted(1);
    EXPECT_TRUE(released);
}

TEST_F(EtFixture, FullTableStallsClose)
{
    // Capacity 8: open epochs 2..8 (7 closes) leaves the table full
    // with uncommittable (write-pending) epochs.
    for (std::uint64_t e = 1; e <= 7; ++e) {
        et.addWrite(e);
        et.closeEpoch(false, []() {});
    }
    EXPECT_EQ(et.size(), 8u);
    bool opened = false;
    et.addWrite(8);
    et.closeEpoch(false, [&]() { opened = true; });
    EXPECT_FALSE(opened);
    EXPECT_GT(stats.get("et.fullStalls"), 0u);
    // Retire epoch 1: the stalled close proceeds.
    et.ackWrite(1);
    ASSERT_FALSE(committable.empty());
    et.markCommitted(1);
    EXPECT_TRUE(opened);
}

TEST_F(EtFixture, OverflowSplitBypassesCapacity)
{
    for (std::uint64_t e = 1; e <= 7; ++e) {
        et.addWrite(e);
        et.closeEpoch(false, []() {});
    }
    bool opened = false;
    et.closeEpoch(true, [&]() { opened = true; });
    EXPECT_TRUE(opened);
    EXPECT_GT(stats.get("et.overflowSplits"), 0u);
}

TEST_F(EtFixture, EarlyMcMaskTracked)
{
    et.addWrite(1);
    et.markEarlyMc(1, 0);
    et.markEarlyMc(1, 1);
    const EpochTable::Entry *e = et.find(1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->earlyMcMask, 0b11u);
}

TEST_F(EtFixture, AckUnknownEpochPanics)
{
    EXPECT_DEATH(et.ackWrite(99), "unknown epoch");
}

// --------------------------------------------------- persist buffer

struct PbFixture : public ::testing::Test
{
    SimConfig cfg;
    EventQueue eq;
    NvmContents media;
    StatSet stats;
    AddressMap amap{2, 256};
    std::vector<std::unique_ptr<MemoryController>> mcOwners;
    std::vector<MemoryController *> mcs;
    std::unique_ptr<PersistBuffer> pb;

    std::vector<std::pair<std::uint64_t, bool>> acks; // (epoch, early)
    FlushMode mode = FlushMode::Safe;

    PbFixture()
    {
        setLogQuiet(true);
        cfg.pbEntries = 4;
        cfg.pbMaxInflight = 2;
        for (unsigned i = 0; i < 2; ++i) {
            mcOwners.push_back(std::make_unique<MemoryController>(
                i, cfg, eq, media, stats));
            mcs.push_back(mcOwners.back().get());
        }
        pb = std::make_unique<PersistBuffer>(0, cfg, eq, stats, amap,
                                             mcs);
        pb->configure(
            [this](std::uint64_t) { return mode; },
            [this](std::uint64_t e, std::uint64_t, bool early) {
                acks.emplace_back(e, early);
            },
            [](std::uint64_t, std::uint64_t) {});
    }
};

TEST_F(PbFixture, FlushesAndAcks)
{
    bool accepted = false;
    pb->enqueue(1, 100, 1, [&]() { accepted = true; });
    EXPECT_TRUE(accepted);
    eq.run();
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0].first, 1u);
    EXPECT_TRUE(pb->empty());
    EXPECT_EQ(media.read(1), 100u);
}

TEST_F(PbFixture, CoalescesSameLineSameEpoch)
{
    mode = FlushMode::Hold; // keep both queued
    pb->enqueue(1, 100, 1, []() {});
    pb->enqueue(1, 200, 1, []() {});
    EXPECT_EQ(stats.get("pb.coalesced"), 1u);
    // The swallowed store is acknowledged immediately.
    ASSERT_EQ(acks.size(), 1u);
    mode = FlushMode::Safe;
    pb->kick();
    eq.run();
    EXPECT_EQ(media.read(1), 200u);
    EXPECT_EQ(acks.size(), 2u);
}

TEST_F(PbFixture, BackPressureWhenFull)
{
    mode = FlushMode::Hold;
    unsigned accepted = 0;
    for (std::uint64_t i = 0; i < 5; ++i)
        pb->enqueue(i, i, 1, [&]() { ++accepted; });
    EXPECT_EQ(accepted, 4u) << "5th store stalls on a full buffer";
    EXPECT_EQ(stats.get("pb.fullEvents"), 1u);
    mode = FlushMode::Safe;
    pb->kick();
    eq.run();
    EXPECT_EQ(accepted, 5u);
    EXPECT_TRUE(pb->empty());
}

TEST_F(PbFixture, HoldBlocksFlushing)
{
    mode = FlushMode::Hold;
    pb->enqueue(1, 1, 1, []() {});
    eq.run();
    EXPECT_EQ(acks.size(), 0u);
    EXPECT_EQ(pb->occupancy(), 1u);
}

TEST_F(PbFixture, EarlyFlushMarksPacket)
{
    mode = FlushMode::Early;
    pb->enqueue(1, 1, 2, []() {});
    // Early flushes need a recovery policy at the MC; without one the
    // MC panics — so verify the early marking via the spec-write stat
    // before any packet arrives.
    EXPECT_EQ(stats.get("pb.totSpecWrites"), 1u);
}

TEST_F(PbFixture, SameLineFlushesStayOrdered)
{
    mode = FlushMode::Safe;
    pb->enqueue(1, 100, 1, []() {});
    // Different epoch, same line: must not overlap in flight.
    pb->enqueue(1, 200, 2, []() {});
    EXPECT_EQ(pb->occupancy(), 2u);
    eq.run();
    EXPECT_EQ(media.read(1), 200u) << "newer value wins";
    EXPECT_EQ(acks.size(), 2u);
}

TEST_F(PbFixture, OccupancyTracked)
{
    mode = FlushMode::Hold;
    pb->enqueue(1, 1, 1, []() {});
    pb->enqueue(2, 2, 1, []() {});
    EXPECT_EQ(pb->occupancy(), 2u);
    mode = FlushMode::Safe;
    pb->kick();
    eq.run();
    EXPECT_EQ(pb->occupancy(), 0u);
    EXPECT_EQ(pb->enqueued(), 2u);
    EXPECT_EQ(pb->flushedIndex(), 2u);
}

TEST_F(PbFixture, CrashDropsEverything)
{
    mode = FlushMode::Hold;
    pb->enqueue(1, 1, 1, []() {});
    pb->crash();
    EXPECT_TRUE(pb->empty());
    mode = FlushMode::Safe;
    pb->kick();
    eq.run();
    EXPECT_EQ(acks.size(), 0u);
}

} // namespace
} // namespace asap
