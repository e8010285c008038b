/**
 * @file
 * Unit tests for the PM software runtime: simulated PM space,
 * allocator, trace recorder (ops, fences, locks, sync edges), the
 * release board, and the first-touch storage behind the PM space and
 * the cache tag arrays.
 */

#include <fstream>

#include <gtest/gtest.h>
#include <unistd.h>

#include "coherence/cache_array.hh"
#include "cpu/release_board.hh"
#include "pm/pm_space.hh"
#include "pm/recorder.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

// ---------------------------------------------------------------- space

TEST(PmSpace, AllocAlignment)
{
    PmSpace pm(1 << 20);
    const std::uint64_t a = pm.alloc(100, 64);
    EXPECT_EQ(a % 64, 0u);
    const std::uint64_t b = pm.alloc(8, 8);
    EXPECT_GE(b, a + 100);
}

TEST(PmSpace, ReadWrite64)
{
    PmSpace pm(1 << 20);
    const std::uint64_t a = pm.alloc(64);
    pm.write64(a, 0xdeadbeef);
    EXPECT_EQ(pm.read64(a), 0xdeadbeefu);
    pm.write8(a, 0x11);
    EXPECT_EQ(pm.read8(a), 0x11);
}

TEST(PmSpace, BytesRoundTrip)
{
    PmSpace pm(1 << 20);
    const std::uint64_t a = pm.alloc(128);
    const char msg[] = "persistent memory!";
    pm.writeBytes(a, msg, sizeof(msg));
    char out[sizeof(msg)];
    pm.readBytes(a, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(PmSpace, FreeListReuse)
{
    PmSpace pm(1 << 20);
    const std::uint64_t a = pm.alloc(64);
    pm.write64(a, 123);
    pm.free(a, 64);
    const std::uint64_t b = pm.alloc(64);
    EXPECT_EQ(b, a) << "same size class reuses the freed region";
    EXPECT_EQ(pm.read64(b), 0u) << "reused memory is zeroed";
}

TEST(PmSpace, VolatileRegionDisjoint)
{
    PmSpace pm(1 << 20);
    const std::uint64_t v = pm.allocVolatile(64);
    EXPECT_FALSE(isPmAddr(v));
    EXPECT_TRUE(isPmAddr(pm.alloc(64)));
}

TEST(PmSpaceDeath, OutOfRangePanics)
{
    PmSpace pm(1024);
    EXPECT_DEATH(pm.read64(pmBase + 4096), "out of range");
}

TEST(PmSpaceDeath, ExhaustionIsFatal)
{
    PmSpace pm(1024);
    EXPECT_DEATH(
        {
            for (int i = 0; i < 100; ++i)
                pm.alloc(64);
        },
        "exhausted");
}

// ------------------------------------------------- first-touch storage

/** Resident set size of this process in bytes. */
std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t total_pages = 0, resident_pages = 0;
    statm >> total_pages >> resident_pages;
    return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(FirstTouchStorage, UntouchedCapacityIsNotResident)
{
    const std::size_t before = residentBytes();
    ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
    PmSpace pm;
    TraceRecorder rec(4, 1);
    EXPECT_LT(residentBytes(), before + (8u << 20))
        << "two 64 MB PM spaces must not be faulted in up front";

    const std::uint64_t last = pmBase + (64ull << 20) - 1;
    EXPECT_EQ(pm.read8(pmBase), 0);
    EXPECT_EQ(pm.read8(last), 0);
    EXPECT_EQ(rec.space().read8(pmBase), 0);
    EXPECT_EQ(rec.space().read8(last), 0);

    const CacheArray llc(16384, 16);
    EXPECT_EQ(llc.population(), 0u);
}

// -------------------------------------------------------------- recorder

TEST(Recorder, RecordsStoresWithUniqueTokens)
{
    TraceRecorder rec(2, 1);
    const std::uint64_t a = rec.space().alloc(64);
    rec.store64(0, a, 1);
    rec.store64(1, a, 2);
    TraceSet ts = rec.finish();
    ASSERT_EQ(ts.threads.size(), 2u);
    const TraceOp &s0 = ts.threads[0][0];
    const TraceOp &s1 = ts.threads[1][0];
    EXPECT_EQ(s0.type, OpType::Store);
    EXPECT_TRUE(s0.isPm);
    EXPECT_NE(s0.value, s1.value);
    EXPECT_NE(s0.value, 0u);
}

TEST(Recorder, FunctionalStateUpdated)
{
    TraceRecorder rec(1, 1);
    const std::uint64_t a = rec.space().alloc(64);
    rec.store64(0, a, 42);
    EXPECT_EQ(rec.load64(0, a), 42u);
}

TEST(Recorder, StoreBytesSplitsPerLine)
{
    TraceRecorder rec(1, 1);
    const std::uint64_t a = rec.space().alloc(256, 64);
    rec.storeBytes(0, a, nullptr, 256);
    TraceSet ts = rec.finish();
    unsigned stores = 0;
    for (const TraceOp &op : ts.threads[0])
        stores += op.type == OpType::Store ? 1 : 0;
    EXPECT_EQ(stores, 4u) << "256 B = 4 lines";
}

TEST(Recorder, ComputeMerges)
{
    TraceRecorder rec(1, 1);
    rec.compute(0, 10);
    rec.compute(0, 20);
    TraceSet ts = rec.finish();
    ASSERT_EQ(ts.threads[0].size(), 2u); // compute + End
    EXPECT_EQ(ts.threads[0][0].type, OpType::Compute);
    EXPECT_EQ(ts.threads[0][0].cycles, 30u);
}

TEST(Recorder, FinishAppendsEnd)
{
    TraceRecorder rec(3, 1);
    TraceSet ts = rec.finish();
    for (const auto &thread : ts.threads) {
        ASSERT_EQ(thread.size(), 1u);
        EXPECT_EQ(thread.back().type, OpType::End);
    }
}

TEST(Recorder, LockEdgesPointAtLastReleaser)
{
    TraceRecorder rec(2, 1);
    PmLock lock = rec.makeLock();
    rec.lockAcquire(0, lock);
    rec.lockRelease(0, lock);
    rec.lockAcquire(1, lock);
    rec.lockRelease(1, lock);
    TraceSet ts = rec.finish();

    const TraceOp &acq0 = ts.threads[0][0];
    EXPECT_EQ(acq0.type, OpType::Acquire);
    EXPECT_EQ(acq0.srcThread, -1) << "first acquire has no source";

    const TraceOp &acq1 = ts.threads[1][0];
    EXPECT_EQ(acq1.srcThread, 0);
    EXPECT_EQ(acq1.srcRelease, 1u);
}

TEST(Recorder, ReleaseOrdinalsPerThread)
{
    TraceRecorder rec(2, 1);
    PmLock a = rec.makeLock(), b = rec.makeLock();
    rec.lockAcquire(0, a);
    rec.lockRelease(0, a);
    rec.lockAcquire(0, b);
    rec.lockRelease(0, b);
    rec.lockAcquire(1, b);
    TraceSet ts = rec.finish();
    // Thread 1 depends on thread 0's *second* release.
    const TraceOp &acq = ts.threads[1][0];
    EXPECT_EQ(acq.srcThread, 0);
    EXPECT_EQ(acq.srcRelease, 2u);
}

TEST(RecorderDeath, DoubleAcquirePanics)
{
    TraceRecorder rec(2, 1);
    setLogQuiet(true);
    PmLock lock = rec.makeLock();
    rec.lockAcquire(0, lock);
    EXPECT_DEATH(rec.lockAcquire(1, lock), "deadlock");
}

TEST(RecorderDeath, ReleaseWithoutHoldPanics)
{
    TraceRecorder rec(2, 1);
    setLogQuiet(true);
    PmLock lock = rec.makeLock();
    EXPECT_DEATH(rec.lockRelease(0, lock), "does not hold");
}

TEST(Recorder, FencesRecorded)
{
    TraceRecorder rec(1, 1);
    rec.ofence(0);
    rec.dfence(0);
    TraceSet ts = rec.finish();
    EXPECT_EQ(ts.threads[0][0].type, OpType::OFence);
    EXPECT_EQ(ts.threads[0][1].type, OpType::DFence);
}

// --------------------------------------------------------- release board

TEST(ReleaseBoard, WaitAfterPublishFiresImmediately)
{
    ReleaseBoard board(2);
    board.publish(0, 7);
    bool fired = false;
    board.wait(0, 1, [&]() { fired = true; });
    EXPECT_TRUE(fired);
    EXPECT_EQ(board.epochAt(0, 1), 7u);
}

TEST(ReleaseBoard, WaitBlocksUntilPublish)
{
    ReleaseBoard board(2);
    bool fired = false;
    board.wait(0, 2, [&]() { fired = true; });
    board.publish(0, 1);
    EXPECT_FALSE(fired) << "waiting for ordinal 2";
    board.publish(0, 5);
    EXPECT_TRUE(fired);
}

TEST(ReleaseBoard, MultipleWaiters)
{
    ReleaseBoard board(1);
    int fired = 0;
    board.wait(0, 1, [&]() { ++fired; });
    board.wait(0, 1, [&]() { ++fired; });
    board.publish(0, 3);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(board.count(0), 1u);
}

} // namespace
} // namespace asap
