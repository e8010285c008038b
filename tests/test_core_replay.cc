/**
 * @file
 * Tests for the replay core and full-System behaviour: op semantics,
 * cross-thread synchronisation in simulated time, EP conflict
 * detection, run-log fidelity.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "pm/pm_space.hh"
#include "pm/recorder.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

TraceSet
emptyTrace(unsigned threads)
{
    TraceRecorder rec(threads, 1);
    return rec.finish();
}

TEST(CoreReplay, EmptyTraceFinishesImmediately)
{
    setLogQuiet(true);
    SimConfig cfg;
    System sys(cfg);
    sys.loadTrace(emptyTrace(cfg.numCores));
    EXPECT_TRUE(sys.run());
    EXPECT_GE(sys.stats().get("core.threadsFinished"), 4u);
}

TEST(CoreReplay, ComputeAdvancesTime)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 1;
    TraceRecorder rec(1, 1);
    rec.compute(0, 1000);
    System sys(cfg);
    sys.loadTrace(rec.finish());
    EXPECT_TRUE(sys.run());
    EXPECT_GE(sys.runTicks(), 1000u);
}

TEST(CoreReplay, StoresReachMediaUnderAsap)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 1;
    TraceRecorder rec(1, 1);
    const std::uint64_t a = rec.space().alloc(64);
    rec.store64(0, a, 42);
    rec.dfence(0);
    TraceSet ts = rec.finish();
    const std::uint64_t token = ts.threads[0][0].value;
    System sys(cfg);
    sys.loadTrace(std::move(ts));
    EXPECT_TRUE(sys.run());
    EXPECT_EQ(sys.nvm().read(lineOf(a)), token);
}

TEST(CoreReplay, AcquireWaitsForRelease)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 2;
    TraceRecorder rec(2, 1);
    PmLock lock = rec.makeLock();
    // Thread 0: long compute, then release. Thread 1: acquire first.
    rec.lockAcquire(0, lock);
    rec.compute(0, 5000);
    rec.lockRelease(0, lock);
    rec.lockAcquire(1, lock);
    rec.lockRelease(1, lock);
    System sys(cfg);
    sys.loadTrace(rec.finish());
    EXPECT_TRUE(sys.run());
    // Thread 1 had to wait out thread 0's critical section.
    EXPECT_GE(sys.runTicks(), 5000u);
}

TEST(CoreReplay, EpConflictsCreateDependencies)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 2;
    cfg.persistency = PersistencyModel::Epoch;
    cfg.model = ModelKind::Asap;
    TraceRecorder rec(2, 1);
    const std::uint64_t a = rec.space().alloc(64);
    // Both threads write the same line: a conflicting access.
    rec.store64(0, a, 1);
    rec.compute(0, 50);
    rec.compute(1, 500); // thread 1 writes later in sim time
    rec.store64(1, a, 2);
    System sys(cfg, true);
    sys.loadTrace(rec.finish());
    EXPECT_TRUE(sys.run());
    EXPECT_GT(sys.stats().get("et.interTEpochConflict"), 0u);
    EXPECT_FALSE(sys.runLog().allEdges().empty());
}

TEST(CoreReplay, RpIgnoresDataConflicts)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 2;
    cfg.persistency = PersistencyModel::Release;
    cfg.model = ModelKind::Asap;
    TraceRecorder rec(2, 1);
    const std::uint64_t a = rec.space().alloc(64);
    rec.store64(0, a, 1);
    rec.compute(1, 500);
    rec.store64(1, a, 2);
    System sys(cfg, true);
    sys.loadTrace(rec.finish());
    EXPECT_TRUE(sys.run());
    EXPECT_EQ(sys.stats().get("et.interTEpochConflict"), 0u)
        << "RP only tracks acquire/release dependencies";
}

TEST(CoreReplay, RunLogMatchesTrace)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 1;
    TraceRecorder rec(1, 1);
    const std::uint64_t a = rec.space().alloc(256, 64);
    for (int i = 0; i < 4; ++i)
        rec.store64(0, a + 64ull * i, i);
    System sys(cfg, true);
    sys.loadTrace(rec.finish());
    EXPECT_TRUE(sys.run());
    EXPECT_EQ(sys.runLog().allStores().size(), 4u);
}

TEST(CoreReplay, MismatchedThreadCountIsFatal)
{
    setLogQuiet(true);
    SimConfig cfg; // 4 cores
    System sys(cfg);
    EXPECT_DEATH(sys.loadTrace(emptyTrace(2)), "4 cores");
}

TEST(CoreReplay, CrashBeforeStartLeavesMediaEmpty)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 1;
    TraceRecorder rec(1, 1);
    const std::uint64_t a = rec.space().alloc(64);
    rec.store64(0, a, 1);
    System sys(cfg);
    sys.loadTrace(rec.finish());
    sys.crashAt(0);
    std::size_t lines = 0;
    sys.nvm().forEach([&lines](std::uint64_t, std::uint64_t) { ++lines; });
    EXPECT_EQ(lines, 0u);
}

TEST(CoreReplay, MaxRunTicksReportsFailure)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.numCores = 1;
    cfg.maxRunTicks = 10;
    TraceRecorder rec(1, 1);
    rec.compute(0, 100000);
    System sys(cfg);
    sys.loadTrace(rec.finish());
    EXPECT_FALSE(sys.run());
}

} // namespace
} // namespace asap
