/**
 * @file
 * Model-level tests: drive the four persistence models through their
 * PersistModel interface against real memory controllers and verify
 * the protocol semantics (eager vs conservative flushing, commit and
 * CDR flow, NACK fallback, fences, crash behaviour).
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

SimConfig
rigConfig(ModelKind kind)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.model = kind;
    cfg.numCores = 2;
    return cfg;
}

/** A two-core, two-MC System whose persistence models the tests
 *  drive directly: no cores replay a trace. */
struct ModelRig
{
    System sys;
    const SimConfig &cfg = sys.config();
    EventQueue &eq = sys.eventQueue();
    NvmContents &media = sys.nvm();
    StatSet &stats = sys.stats();

    explicit ModelRig(const SimConfig &c) : sys(c) {}
    explicit ModelRig(ModelKind kind) : ModelRig(rigConfig(kind)) {}

    PersistModel &model(unsigned t) { return sys.model(t); }

    /** Power failure of the memory controllers. */
    void
    crashMcs()
    {
        for (unsigned i = 0; i < cfg.numMCs; ++i)
            sys.mc(i).crash();
    }
};

// ------------------------------------------------------------------ ASAP

TEST(AsapModelTest, StoreFlushesWithoutFence)
{
    ModelRig rig(ModelKind::Asap);
    rig.model(0).pmStore(1, 100, []() {});
    rig.eq.run();
    EXPECT_EQ(rig.media.read(1), 100u) << "eager flushing needs no fence";
}

TEST(AsapModelTest, OfenceDoesNotStall)
{
    ModelRig rig(ModelKind::Asap);
    bool done = false;
    rig.model(0).pmStore(1, 100, []() {});
    rig.model(0).ofence([&]() { done = true; });
    EXPECT_TRUE(done) << "ofence completes immediately";
}

TEST(AsapModelTest, DfenceWaitsForCommit)
{
    ModelRig rig(ModelKind::Asap);
    bool done = false;
    rig.model(0).pmStore(1, 100, []() {});
    rig.model(0).dfence([&]() { done = true; });
    EXPECT_FALSE(done);
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.model(0).lastCommittedEpoch(), 1u);
}

TEST(AsapModelTest, EagerFlushAcrossEpochsIsEarly)
{
    ModelRig rig(ModelKind::Asap);
    auto &m = rig.model(0);
    m.pmStore(1, 100, []() {});
    m.ofence([]() {});
    m.pmStore(2, 200, []() {});
    m.ofence([]() {});
    m.pmStore(3, 300, []() {});
    rig.eq.run();
    EXPECT_GT(rig.stats.get("pb.totSpecWrites"), 0u)
        << "later-epoch writes flush early";
    EXPECT_EQ(rig.media.read(1), 100u);
    EXPECT_EQ(rig.media.read(2), 200u);
    EXPECT_EQ(rig.media.read(3), 300u);
}

TEST(AsapModelTest, CrossDependencyCdrFlow)
{
    ModelRig rig(ModelKind::Asap);
    auto &src = rig.model(0);
    auto &dep = rig.model(1);

    src.pmStore(1, 100, []() {});
    const std::uint64_t src_epoch = src.currentEpoch();
    src.release([]() {});

    bool acquired = false;
    dep.acquire(0, src_epoch, [&]() { acquired = true; });
    EXPECT_TRUE(acquired);
    dep.pmStore(5, 500, []() {});
    bool dep_done = false;
    dep.dfence([&]() { dep_done = true; });
    rig.eq.run();
    EXPECT_TRUE(dep_done);
    EXPECT_GT(rig.stats.get("asap.cdrMessages"), 0u);
    EXPECT_GT(rig.stats.get("et.interTEpochConflict"), 0u);
}

TEST(AsapModelTest, NackTriggersConservativeFallback)
{
    SimConfig cfg = rigConfig(ModelKind::Asap);
    cfg.rtEntries = 2;
    ModelRig rig(cfg);
    auto &m = rig.model(0);
    // Epoch 1 keeps a write pending so epochs 2.. stay unsafe, and a
    // stream of later-epoch writes overwhelms the 2-entry tables.
    for (int e = 0; e < 12; ++e) {
        m.pmStore(static_cast<std::uint64_t>(e * 2 + 1),
                  static_cast<std::uint64_t>(e), []() {});
        m.ofence([]() {});
    }
    bool done = false;
    m.dfence([&]() { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_GT(rig.stats.get("rt.nacks"), 0u);
    EXPECT_GT(rig.stats.get("asap.conservativeFallbacks"), 0u);
    // All writes still became durable despite the NACKs.
    for (int e = 0; e < 12; ++e) {
        EXPECT_EQ(rig.media.read(
                      static_cast<std::uint64_t>(e * 2 + 1)),
                  static_cast<std::uint64_t>(e));
    }
}

TEST(AsapModelTest, CrashRewindsUncommittedSpeculation)
{
    ModelRig rig(ModelKind::Asap);
    auto &m = rig.model(0);
    // Epoch 1: a write we keep uncommitted by crashing right after
    // the speculative flush of epoch 2's write lands.
    m.pmStore(1, 100, []() {});
    m.ofence([]() {});
    m.pmStore(1, 200, []() {});
    // Run a short while: epoch 2's early flush may speculatively
    // reach memory.
    rig.eq.run(200);
    rig.model(0).crash();
    rig.model(1).crash();
    rig.crashMcs();
    // Whatever happened, line 1 must hold 0, 100 or 200 in a state
    // consistent with epoch order: if 200 survived, epoch 1 (same
    // line) must have been superseded — always true here. The key
    // check: memory is not left with a value that never existed.
    const std::uint64_t v = rig.media.read(1);
    EXPECT_TRUE(v == 0 || v == 100 || v == 200);
}

// ------------------------------------------------------------------ HOPS

TEST(HopsModelTest, ConservativeHoldsFutureEpochs)
{
    ModelRig rig(ModelKind::Hops);
    auto &m = rig.model(0);
    m.pmStore(1, 100, []() {});
    m.ofence([]() {});
    m.pmStore(2, 200, []() {});
    rig.eq.run();
    EXPECT_EQ(rig.stats.get("pb.totSpecWrites"), 0u)
        << "HOPS never flushes early";
    EXPECT_EQ(rig.media.read(2), 200u);
    EXPECT_GT(rig.stats.get("pb.cyclesBlocked"), 0u)
        << "epoch 2 waited for epoch 1";
}

TEST(HopsModelTest, DependencyResolvedByPolling)
{
    ModelRig rig(ModelKind::Hops);
    auto &src = rig.model(0);
    auto &dep = rig.model(1);
    src.pmStore(1, 100, []() {});
    const std::uint64_t e = src.currentEpoch();
    src.release([]() {});
    dep.acquire(0, e, []() {});
    dep.pmStore(5, 500, []() {});
    bool done = false;
    dep.dfence([&]() { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_GT(rig.stats.get("hops.polls"), 0u);
}

TEST(HopsModelTest, PollingCadenceMatchesConfig)
{
    ModelRig rig(ModelKind::Hops);
    auto &src = rig.model(0);
    auto &dep = rig.model(1);
    // Source epoch with one slow write: dependency resolution takes
    // at least one full poll period.
    src.pmStore(1, 100, []() {});
    const std::uint64_t e = src.currentEpoch();
    src.release([]() {});
    dep.acquire(0, e, []() {});
    bool done = false;
    dep.dfence([&]() { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_GE(rig.eq.now(), rig.cfg.hopsPollPeriod);
}

// -------------------------------------------------------------- baseline

TEST(BaselineModelTest, FenceStallsUntilAcked)
{
    ModelRig rig(ModelKind::Baseline);
    auto &m = rig.model(0);
    m.pmStore(1, 100, []() {});
    bool done = false;
    m.ofence([&]() { done = true; });
    EXPECT_FALSE(done) << "sfence stalls";
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.media.read(1), 100u);
    EXPECT_GT(rig.stats.get("core.sfenceStalled"), 0u);
}

TEST(BaselineModelTest, EmptyFenceIsFree)
{
    ModelRig rig(ModelKind::Baseline);
    bool done = false;
    rig.model(0).ofence([&]() { done = true; });
    EXPECT_TRUE(done);
}

TEST(BaselineModelTest, WriteSetCoalescesPerLine)
{
    ModelRig rig(ModelKind::Baseline);
    auto &m = rig.model(0);
    m.pmStore(1, 100, []() {});
    m.pmStore(1, 101, []() {});
    m.pmStore(2, 200, []() {});
    m.ofence([]() {});
    rig.eq.run();
    EXPECT_EQ(rig.stats.get("baseline.clwbs"), 2u)
        << "one clwb per dirty line";
    EXPECT_EQ(rig.media.read(1), 101u);
}

TEST(BaselineModelTest, UnflushedWritesDieInCrash)
{
    ModelRig rig(ModelKind::Baseline);
    auto &m = rig.model(0);
    m.pmStore(1, 100, []() {});
    // No fence: the write sits in the (volatile) cache.
    m.crash();
    rig.crashMcs();
    EXPECT_EQ(rig.media.read(1), 0u);
}

// ------------------------------------------------------------------ eADR

TEST(EadrModelTest, NothingStalls)
{
    ModelRig rig(ModelKind::Eadr);
    auto &m = rig.model(0);
    bool store_done = false, fence_done = false;
    m.pmStore(1, 100, [&]() { store_done = true; });
    m.ofence([&]() { fence_done = true; });
    EXPECT_TRUE(store_done);
    EXPECT_TRUE(fence_done);
}

TEST(EadrModelTest, CrashDrainsEverything)
{
    ModelRig rig(ModelKind::Eadr);
    auto &m = rig.model(0);
    m.pmStore(1, 100, []() {});
    m.pmStore(2, 200, []() {});
    m.crash(); // battery drain
    EXPECT_EQ(rig.media.read(1), 100u);
    EXPECT_EQ(rig.media.read(2), 200u);
    EXPECT_GT(rig.stats.get("eadr.batteryDrainWrites"), 0u);
}

TEST(EadrModelTest, BackgroundDrainReachesMedia)
{
    ModelRig rig(ModelKind::Eadr);
    rig.model(0).pmStore(1, 100, []() {});
    rig.eq.run();
    EXPECT_EQ(rig.media.read(1), 100u)
        << "writes drain to NVM in the background";
    EXPECT_GT(rig.stats.get("mc.pmWrites"), 0u);
}

} // namespace
} // namespace asap
