/**
 * @file
 * Integration and property tests across the whole system:
 *
 *  - crash fuzzing: every workload, ASAP and HOPS, EP and RP, random
 *    crash points — post-crash NVM state must satisfy the Section VI
 *    invariants (prefix closure, committed durability, no alien
 *    values);
 *  - liveness: every configuration runs to completion (Theorem 1's
 *    no-deadlock claim, executable);
 *  - performance-ordering properties from the evaluation (ASAP >=
 *    HOPS, eADR fastest, baseline slowest on fence-heavy code).
 */

#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>

#include "harness/runner.hh"
#include "harness/system.hh"
#include "recovery/checker.hh"
#include "sim/log.hh"
#include "workloads/kv_util.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

namespace asap
{
namespace
{

WorkloadParams
smallParams(std::uint64_t seed)
{
    WorkloadParams p;
    p.opsPerThread = 30;
    p.seed = seed;
    return p;
}

// --------------------------------------------------------- liveness sweep

class Liveness
    : public ::testing::TestWithParam<
          std::tuple<const char *, ModelKind, PersistencyModel>>
{
};

TEST_P(Liveness, RunsToCompletion)
{
    setLogQuiet(true);
    auto [name, kind, pm] = GetParam();
    SimConfig cfg;
    cfg.model = kind;
    cfg.persistency = pm;
    cfg.maxRunTicks = 1'000'000'000ULL;
    System sys(cfg);
    sys.loadTrace(buildTrace(name, cfg.numCores, smallParams(3)));
    EXPECT_TRUE(sys.run()) << name << " deadlocked under "
                           << toString(kind) << "/" << toString(pm);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, Liveness,
    ::testing::Combine(
        ::testing::Values("nstore", "echo", "vacation", "memcached",
                          "heap", "queue", "skiplist", "cceh",
                          "fast_fair", "dash-lh", "dash-eh", "p-art",
                          "p-clht", "p-masstree"),
        ::testing::Values(ModelKind::Baseline, ModelKind::Hops,
                          ModelKind::Asap, ModelKind::Eadr),
        ::testing::Values(PersistencyModel::Epoch,
                          PersistencyModel::Release)));

// ------------------------------------------------------------ crash fuzz

class CrashFuzz
    : public ::testing::TestWithParam<
          std::tuple<const char *, PersistencyModel>>
{
};

TEST_P(CrashFuzz, AsapConsistentAtRandomCrashPoints)
{
    setLogQuiet(true);
    auto [name, pm] = GetParam();
    Rng rng(hash64(std::string(name).size() * 977 +
                   (pm == PersistencyModel::Epoch ? 1 : 2)));

    // Measure the full runtime once, then crash at random fractions.
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = pm;
    {
        System probe(cfg);
        probe.loadTrace(buildTrace(name, cfg.numCores, smallParams(9)));
        ASSERT_TRUE(probe.run());
        cfg.maxRunTicks = maxTick;
        const Tick total = probe.runTicks();
        for (int trial = 0; trial < 4; ++trial) {
            const Tick when = 1 + rng.below(total);
            System sys(cfg, /*keep_run_log=*/true);
            sys.loadTrace(
                buildTrace(name, cfg.numCores, smallParams(9)));
            sys.crashAt(when);
            CheckResult r = checkCrashConsistency(
                sys.runLog(), sys.nvm(), sys.committedUpTo());
            EXPECT_TRUE(r.ok)
                << name << "/" << toString(pm) << " crash@" << when
                << ": " << r.message;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrashFuzz,
    ::testing::Combine(
        ::testing::Values("nstore", "echo", "vacation", "memcached",
                          "heap", "queue", "skiplist", "cceh",
                          "fast_fair", "dash-lh", "dash-eh", "p-art",
                          "p-clht", "p-masstree"),
        ::testing::Values(PersistencyModel::Epoch,
                          PersistencyModel::Release)));

TEST(CrashFuzz, HopsConsistentToo)
{
    setLogQuiet(true);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SimConfig cfg;
        cfg.model = ModelKind::Hops;
        System sys(cfg, true);
        sys.loadTrace(buildTrace("cceh", cfg.numCores,
                                 smallParams(seed)));
        sys.crashAt(10'000 * seed);
        CheckResult r = checkCrashConsistency(
            sys.runLog(), sys.nvm(), sys.committedUpTo());
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.message;
    }
}

TEST(CrashFuzz, SyntheticCollisionHeavy)
{
    // Tiny shared region + many threads maximises write collisions
    // (Figure 5 situations) and delay-record churn.
    setLogQuiet(true);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SimConfig cfg;
        cfg.model = ModelKind::Asap;
        TraceRecorder rec(cfg.numCores, seed);
        SyntheticParams p;
        p.opsPerThread = 50;
        p.regionLines = 8;
        p.lockCount = 2;
        p.sharedPct = 90;
        p.computeCycles = 30;
        genSyntheticWorkload(rec, p);
        System sys(cfg, true);
        sys.loadTrace(rec.finish());
        sys.crashAt(15'000 * seed);
        CheckResult r = checkCrashConsistency(
            sys.runLog(), sys.nvm(), sys.committedUpTo());
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.message;
        EXPECT_GT(sys.stats().get("rt.totalUndo"), 0u);
    }
}

TEST(CrashFuzz, TinyRecoveryTableStillConsistent)
{
    // A 4-entry RT forces constant NACK/conservative churn; crash
    // consistency must hold regardless.
    setLogQuiet(true);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SimConfig cfg;
        cfg.model = ModelKind::Asap;
        cfg.rtEntries = 4;
        System sys(cfg, true);
        sys.loadTrace(buildTrace("fast_fair", cfg.numCores,
                                 smallParams(seed)));
        sys.crashAt(20'000 * seed);
        CheckResult r = checkCrashConsistency(
            sys.runLog(), sys.nvm(), sys.committedUpTo());
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.message;
    }
}

TEST(CrashFuzz, CrashAfterCompletionKeepsEverything)
{
    setLogQuiet(true);
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    System sys(cfg, true);
    sys.loadTrace(buildTrace("p-clht", cfg.numCores, smallParams(2)));
    sys.crashAt(maxTick - 1); // runs to completion, then "crash"
    CheckResult r = checkCrashConsistency(sys.runLog(), sys.nvm(),
                                          sys.committedUpTo());
    EXPECT_TRUE(r.ok) << r.message;
    // Every epoch committed: every last write per line must survive.
    const auto committed = sys.committedUpTo();
    for (std::uint64_t c : committed)
        EXPECT_GT(c, 0u);
}

// ------------------------------------------------ evaluation properties

TEST(PerfProperties, OrderingAcrossModels)
{
    setLogQuiet(true);
    WorkloadParams p = smallParams(5);
    p.opsPerThread = 60;
    for (const char *name : {"cceh", "p-art", "queue"}) {
        RunResult base = runExperiment(name, ModelKind::Baseline,
                                       PersistencyModel::Release, 4, p);
        RunResult hops = runExperiment(name, ModelKind::Hops,
                                       PersistencyModel::Release, 4, p);
        RunResult asap = runExperiment(name, ModelKind::Asap,
                                       PersistencyModel::Release, 4, p);
        RunResult eadr = runExperiment(name, ModelKind::Eadr,
                                       PersistencyModel::Release, 4, p);
        EXPECT_LE(asap.runTicks, hops.runTicks)
            << name << ": ASAP must not lose to HOPS";
        EXPECT_LE(asap.runTicks, base.runTicks)
            << name << ": ASAP must not lose to baseline";
        EXPECT_LE(eadr.runTicks, asap.runTicks + asap.runTicks / 5)
            << name << ": eADR within sanity of ASAP";
    }
}

TEST(PerfProperties, AsapBlockedCyclesBelowHops)
{
    setLogQuiet(true);
    WorkloadParams p = smallParams(5);
    p.opsPerThread = 60;
    RunResult hops = runExperiment("cceh", ModelKind::Hops,
                                   PersistencyModel::Release, 4, p);
    RunResult asap = runExperiment("cceh", ModelKind::Asap,
                                   PersistencyModel::Release, 4, p);
    EXPECT_LT(asap.cyclesBlocked, hops.cyclesBlocked);
}

TEST(PerfProperties, AsapPbOccupancyBelowHops)
{
    setLogQuiet(true);
    WorkloadParams p = smallParams(5);
    p.opsPerThread = 60;
    RunResult hops = runExperiment("dash-eh", ModelKind::Hops,
                                   PersistencyModel::Release, 4, p);
    RunResult asap = runExperiment("dash-eh", ModelKind::Asap,
                                   PersistencyModel::Release, 4, p);
    EXPECT_LT(asap.pbOccMean, hops.pbOccMean);
}

TEST(PerfProperties, EpochSplittingUnderEp)
{
    // EP detects dependencies on conflicting data accesses, so it
    // must see at least as many cross-thread dependencies as RP.
    setLogQuiet(true);
    WorkloadParams p = smallParams(5);
    RunResult rp = runExperiment("cceh", ModelKind::Asap,
                                 PersistencyModel::Release, 4, p);
    RunResult ep = runExperiment("cceh", ModelKind::Asap,
                                 PersistencyModel::Epoch, 4, p);
    EXPECT_GE(ep.crossDeps, rp.crossDeps);
}

TEST(PerfProperties, MoreCoresMoreThroughput)
{
    setLogQuiet(true);
    WorkloadParams p = smallParams(5);
    p.opsPerThread = 60;
    RunResult one = runExperiment("p-art", ModelKind::Asap,
                                  PersistencyModel::Release, 1, p);
    RunResult four = runExperiment("p-art", ModelKind::Asap,
                                   PersistencyModel::Release, 4, p);
    const double tput1 = 1.0 / static_cast<double>(one.runTicks);
    const double tput4 = 4.0 / static_cast<double>(four.runTicks);
    EXPECT_GT(tput4, tput1) << "ASAP scales with cores";
}

TEST(PerfProperties, BandwidthMicrobenchAsapBeatsHops)
{
    setLogQuiet(true);
    WorkloadParams p = smallParams(1);
    p.opsPerThread = 100;
    SimConfig hops;
    hops.model = ModelKind::Hops;
    hops.nvmBanks = 16;
    SimConfig asap;
    asap.model = ModelKind::Asap;
    asap.nvmBanks = 16;
    RunResult h = runExperiment("bandwidth", hops, p);
    RunResult a = runExperiment("bandwidth", asap, p);
    EXPECT_LT(a.runTicks, h.runTicks);
}

TEST(PerfProperties, StatsArePlausible)
{
    setLogQuiet(true);
    WorkloadParams p = smallParams(5);
    RunResult r = runExperiment("cceh", ModelKind::Asap,
                                PersistencyModel::Release, 4, p);
    EXPECT_GT(r.runTicks, 0u);
    EXPECT_GT(r.pmWrites, 0u);
    EXPECT_GT(r.epochs, 0u);
    EXPECT_GT(r.entriesInserted, 0u);
    EXPECT_LE(r.rtMaxOccupancy, 32u);
    EXPECT_LE(r.pbOccP99, 32u);
    EXPECT_GT(r.totSpecWrites, 0u);
    EXPECT_GT(r.totalUndo, 0u);
}

TEST(PerfProperties, FinalMediaStateAgreesAcrossModels)
{
    // After a complete (undisturbed) run, every model must leave the
    // media with exactly the last write per line: the models differ
    // in *when* writes persist, never in *what* ends up durable.
    setLogQuiet(true);
    WorkloadParams p = smallParams(8);
    for (const char *name : {"echo", "fast_fair", "queue"}) {
        std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
            finals;
        for (ModelKind kind :
             {ModelKind::Baseline, ModelKind::Hops, ModelKind::Asap,
              ModelKind::Eadr}) {
            SimConfig cfg;
            cfg.model = kind;
            System sys(cfg);
            sys.loadTrace(buildTrace(name, cfg.numCores, p));
            ASSERT_TRUE(sys.run());
            // eADR persists the remainder only on a power event.
            sys.crashAt(maxTick - 1);
            std::unordered_map<std::uint64_t, std::uint64_t> media;
            sys.nvm().forEach([&media](std::uint64_t line,
                                       std::uint64_t value) {
                media[line] = value;
            });
            finals.push_back(std::move(media));
        }
        for (std::size_t m = 1; m < finals.size(); ++m) {
            EXPECT_EQ(finals[m].size(), finals[0].size()) << name;
            for (const auto &[line, value] : finals[0]) {
                auto it = finals[m].find(line);
                ASSERT_NE(it, finals[m].end())
                    << name << " model " << m << " line " << line;
                EXPECT_EQ(it->second, value)
                    << name << " model " << m << " line " << line;
            }
        }
    }
}

TEST(PerfProperties, DeterministicRuns)
{
    setLogQuiet(true);
    WorkloadParams p = smallParams(5);
    RunResult a = runExperiment("echo", ModelKind::Asap,
                                PersistencyModel::Release, 4, p);
    RunResult b = runExperiment("echo", ModelKind::Asap,
                                PersistencyModel::Release, 4, p);
    EXPECT_EQ(a.runTicks, b.runTicks);
    EXPECT_EQ(a.pmWrites, b.pmWrites);
    EXPECT_EQ(a.totalUndo, b.totalUndo);
}

} // namespace
} // namespace asap
