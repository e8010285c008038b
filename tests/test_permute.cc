/**
 * @file
 * Tests for the crash-state permuter: the enumerator core (atom
 * derivation, state masks, sampling bounds), the Permute job kind
 * through the engine (dispatch, cache entries, emitters),
 * coverage reporting, and the fault hook that proves the checker
 * rejects states a broken recovery policy reaches.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "exp/cache.hh"
#include "exp/crash_campaign.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
#include "permute/permute.hh"
#include "recovery/checker.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.opsPerThread = 20;
    p.seed = 7;
    return p;
}

void
expectSamePermuteVerdict(const CrashVerdict &a, const CrashVerdict &b)
{
    EXPECT_EQ(a.consistent, b.consistent);
    EXPECT_EQ(a.message, b.message);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.committedUpTo, b.committedUpTo);
    EXPECT_EQ(a.statesChecked, b.statesChecked);
    EXPECT_EQ(a.statesReachable, b.statesReachable);
    EXPECT_EQ(a.distinctStates, b.distinctStates);
    EXPECT_EQ(a.permuteAtoms, b.permuteAtoms);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.inconsistentStates, b.inconsistentStates);
    EXPECT_EQ(a.firstBadState, b.firstBadState);
}

// ------------------------------------------------- enumerator units

TEST(PermuteCore, MaskHexRoundTrip)
{
    for (std::uint64_t m : {0ull, 1ull, 0x2aull, 0xdeadbeefull,
                            ~0ull}) {
        std::uint64_t back = 1;
        ASSERT_TRUE(permute::maskFromHex(permute::maskToHex(m), back));
        EXPECT_EQ(back, m);
    }
    std::uint64_t out;
    EXPECT_FALSE(permute::maskFromHex("", out));
    EXPECT_FALSE(permute::maskFromHex("xyz", out));
    EXPECT_FALSE(permute::maskFromHex("12345678901234567", out));
}

TEST(PermuteCore, FaultModeParse)
{
    permute::FaultMode fm;
    EXPECT_TRUE(permute::parsePermuteFault("", fm));
    EXPECT_EQ(fm, permute::FaultMode::None);
    EXPECT_TRUE(permute::parsePermuteFault("none", fm));
    EXPECT_EQ(fm, permute::FaultMode::None);
    EXPECT_TRUE(permute::parsePermuteFault("drop-undo", fm));
    EXPECT_EQ(fm, permute::FaultMode::DropUndo);
    EXPECT_FALSE(permute::parsePermuteFault("bogus", fm));
}

/** Two controllers, two in-flight epochs, records spread over both. */
permute::PermuteSnapshot
syntheticSnapshot()
{
    permute::PermuteSnapshot snap;
    snap.inFlight = {{0, 5}, {1, 9}};

    permute::McSnapshot m0;
    m0.mc = 0;
    m0.undos = {{100, 11, 0, 5}, {101, 12, 1, 9}};
    m0.delays = {{100, 13, 0, 5}};
    permute::McSnapshot m1;
    m1.mc = 1;
    m1.undos = {{200, 21, 0, 5}};
    snap.mcs = {m0, m1};

    snap.durableAtCrash = {{100, 91}, {101, 92}, {200, 93}};
    return snap;
}

TEST(PermuteCore, DeriveAtomsIsSortedAndDeterministic)
{
    const permute::PermuteSnapshot snap = syntheticSnapshot();
    const std::vector<permute::Atom> a =
        deriveAtoms(snap, permute::FaultMode::None);
    // (mc0, t0e5), (mc0, t1e9), (mc1, t0e5) — mc-major, thread next.
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0].mc, 0u);
    EXPECT_EQ(a[0].thread, 0);
    EXPECT_EQ(a[1].mc, 0u);
    EXPECT_EQ(a[1].thread, 1);
    EXPECT_EQ(a[2].mc, 1u);
    EXPECT_EQ(a[2].thread, 0);
    for (const permute::Atom &atom : a)
        EXPECT_EQ(atom.kind, permute::Atom::Kind::CommitApply);

    // The fault mode appends one droppable atom per undo record,
    // after every CommitApply (kind-major order).
    const std::vector<permute::Atom> f =
        deriveAtoms(snap, permute::FaultMode::DropUndo);
    ASSERT_EQ(f.size(), 6u);
    EXPECT_EQ(f[3].kind, permute::Atom::Kind::DropUndo);
    EXPECT_EQ(f[3].line, 100u);
    EXPECT_EQ(f[4].line, 101u);
    EXPECT_EQ(f[5].line, 200u);

    // Same snapshot, same bit positions — the repro contract.
    const std::vector<permute::Atom> g =
        deriveAtoms(snap, permute::FaultMode::DropUndo);
    ASSERT_EQ(g.size(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_EQ(g[i].kind, f[i].kind);
        EXPECT_EQ(g[i].mc, f[i].mc);
        EXPECT_EQ(g[i].thread, f[i].thread);
        EXPECT_EQ(g[i].epoch, f[i].epoch);
        EXPECT_EQ(g[i].line, f[i].line);
    }
}

TEST(PermuteCore, ExhaustiveBelowBoundSampledAbove)
{
    setLogQuiet(true);
    const permute::PermuteSnapshot snap = syntheticSnapshot();
    // Empty log: every enumerated image is trivially consistent (the
    // checker only judges logged lines), which isolates the
    // enumeration accounting from checker semantics here.
    RunLog log;
    NvmContents nvm;
    const std::vector<std::uint64_t> committed = {0, 0};

    permute::PermuteOptions opt;
    opt.bound = 64;
    permute::PermuteReport rep =
        permuteAndCheck(snap, opt, nvm, log, committed);
    EXPECT_EQ(rep.atoms, 3u);
    EXPECT_EQ(rep.statesReachable, 8u);
    EXPECT_EQ(rep.statesChecked, 8u);
    EXPECT_FALSE(rep.truncated);
    EXPECT_EQ(rep.inconsistentStates, 0u);
    EXPECT_EQ(rep.orderCollisions, 0u);
    EXPECT_GE(rep.distinctStates, 1u);
    EXPECT_LE(rep.distinctStates, rep.statesChecked);

    // Above the bound: sampled, loudly flagged, deterministic.
    opt.bound = 4;
    const permute::PermuteReport s1 =
        permuteAndCheck(snap, opt, nvm, log, committed);
    EXPECT_TRUE(s1.truncated);
    EXPECT_EQ(s1.statesChecked, 4u);
    const permute::PermuteReport s2 =
        permuteAndCheck(snap, opt, nvm, log, committed);
    EXPECT_EQ(s1.statesChecked, s2.statesChecked);
    EXPECT_EQ(s1.distinctStates, s2.distinctStates);

    // Single-state mode (--repro --state).
    opt = permute::PermuteOptions{};
    opt.haveOnlyMask = true;
    opt.onlyMask = 5;
    const permute::PermuteReport one =
        permuteAndCheck(snap, opt, nvm, log, committed);
    EXPECT_EQ(one.statesChecked, 1u);

    // The mutate-check-revert contract: nvm is back to canonical.
    EXPECT_EQ(nvm.read(100), 0u);
    EXPECT_EQ(nvm.read(101), 0u);
    EXPECT_EQ(nvm.read(200), 0u);
}

TEST(PermuteCore, GrayCodeCoversSpaceWithSingleBitSteps)
{
    // Consecutive reflected Gray codes differ in exactly one bit, and
    // the sequence is a permutation of the full space — the two
    // properties the incremental engine's O(1) state steps rest on.
    constexpr unsigned kBits = 12;
    constexpr std::uint64_t kCount = 1ULL << kBits;
    std::vector<bool> seen(kCount, false);
    EXPECT_EQ(permute::grayCode(0), 0u);
    std::uint64_t prev = permute::grayCode(0);
    seen[prev] = true;
    for (std::uint64_t i = 1; i < kCount; ++i) {
        const std::uint64_t g = permute::grayCode(i);
        ASSERT_LT(g, kCount);
        ASSERT_FALSE(seen[g]) << "grayCode repeats at i=" << i;
        seen[g] = true;
        EXPECT_TRUE(std::has_single_bit(prev ^ g))
            << "step " << i << " flips more than one bit";
        prev = g;
    }
}

TEST(PermuteCore, EngineParse)
{
    permute::Engine e = permute::Engine::Naive;
    EXPECT_TRUE(permute::parsePermuteEngine("", e));
    EXPECT_EQ(e, permute::Engine::Incremental);
    EXPECT_TRUE(permute::parsePermuteEngine("naive", e));
    EXPECT_EQ(e, permute::Engine::Naive);
    EXPECT_TRUE(permute::parsePermuteEngine("incremental", e));
    EXPECT_EQ(e, permute::Engine::Incremental);
    EXPECT_FALSE(permute::parsePermuteEngine("bogus", e));
    EXPECT_STREQ(permute::toString(permute::Engine::Naive), "naive");
    EXPECT_STREQ(permute::toString(permute::Engine::Incremental),
                 "incremental");
}

// ---------------------------------------------------- engine parity

/**
 * Naive, incremental and parallel (8 workers) engines must agree on
 * every reported number — checked/reachable/distinct/inconsistent
 * counts, truncation, first-bad state and message — across all four
 * models, several crash ticks and both fault modes.
 */
void
expectEngineParity(const std::string &fault)
{
    setLogQuiet(true);
    const ModelPair models[] = {
        {ModelKind::Baseline, PersistencyModel::Epoch},
        {ModelKind::Hops, PersistencyModel::Epoch},
        {ModelKind::Eadr, PersistencyModel::Epoch},
        {ModelKind::Asap, PersistencyModel::Release},
    };
    WorkloadParams params = tinyParams();
    params.opsPerThread = 60;
    for (const ModelPair &m : models) {
        SimConfig cfg;
        cfg.model = m.first;
        cfg.persistency = m.second;
        cfg.numCores = 4;
        for (Tick t : {8000u, 24000u, 40000u}) {
            PermuteSpec naive;
            naive.engine = "naive";
            naive.fault = fault;
            PermuteSpec inc;
            inc.engine = "incremental";
            inc.fault = fault;
            PermuteSpec par;
            par.engine = "incremental";
            par.threads = 8;
            par.fault = fault;

            const CrashRunResult a = runPermuteExperiment(
                "queue", cfg, params, t, naive);
            const CrashRunResult b = runPermuteExperiment(
                "queue", cfg, params, t, inc);
            const CrashRunResult c = runPermuteExperiment(
                "queue", cfg, params, t, par);
            SCOPED_TRACE(toString(m.first) + "/" + toString(m.second) +
                         " @ " + std::to_string(t) +
                         (fault.empty() ? "" : " fault=" + fault));
            expectSamePermuteVerdict(a.verdict, b.verdict);
            expectSamePermuteVerdict(a.verdict, c.verdict);
        }
    }
}

TEST(PermuteEngines, CrashAndPermuteShareOneCheckerIndex)
{
    setLogQuiet(true);
    // A Crash job and a Permute job probing the same tick hold
    // identical logs, so the content-keyed memo must serve both from
    // one CheckerIndex build.
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Release;
    cfg.numCores = 4;
    clearCheckerIndexCache();
    PermuteSpec spec;
    (void)runPermuteExperiment("queue", cfg, tinyParams(), 20000, spec);
    (void)runCrashExperiment("queue", cfg, tinyParams(), 20000);
    const CheckerIndexStats stats = checkerIndexStats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_GE(stats.hits, 1u);
    clearCheckerIndexCache();
}

TEST(PermuteEngines, ParityAcrossModels)
{
    expectEngineParity("");
}

TEST(PermuteEngines, ParityAcrossModelsWithDropUndoFault)
{
    expectEngineParity("drop-undo");
}

// ----------------------------------------- job plumbing (cache, wire)

TEST(PermuteJobs, KeyDependsOnEveryPermuteKnob)
{
    JobSet set;
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Release;
    set.addCrash("queue", cfg, tinyParams(), 5000);
    set.addPermute("queue", cfg, tinyParams(), 5000, 4096, 1);
    const std::string crashKey = jobKey(set.jobs()[0]);
    const std::string permKey = jobKey(set.jobs()[1]);
    EXPECT_NE(crashKey, permKey);

    // Crash keys must not mention the permute knobs (legacy cache
    // entries stay addressable).
    EXPECT_EQ(describeJob(set.jobs()[0]).find("permute"),
              std::string::npos);

    ExperimentJob j = set.jobs()[1];
    j.permuteBound = 128;
    EXPECT_NE(jobKey(j), permKey);
    j = set.jobs()[1];
    j.permuteSeed = 2;
    EXPECT_NE(jobKey(j), permKey);
    j = set.jobs()[1];
    j.permuteFault = "drop-undo";
    EXPECT_NE(jobKey(j), permKey);
    j = set.jobs()[1];
    j.permuteState = "2a";
    EXPECT_NE(jobKey(j), permKey);
}

TEST(PermuteJobs, EntrySerializationRoundTripsCoverage)
{
    CachedResult e;
    e.kind = JobKind::Permute;
    e.run.workload = "queue";
    e.run.model = ModelKind::Asap;
    e.run.persistency = PersistencyModel::Release;
    e.verdict.consistent = false;
    e.verdict.message = "state 2a: epoch (t1,e3) lost a write";
    e.verdict.crashTick = 777;
    e.verdict.actualTick = 777;
    e.verdict.committedUpTo = {4, 2};
    e.verdict.statesChecked = 96;
    e.verdict.statesReachable = 128;
    e.verdict.distinctStates = 60;
    e.verdict.permuteAtoms = 7;
    e.verdict.truncated = true;
    e.verdict.inconsistentStates = 3;
    e.verdict.firstBadState = "2a";

    CachedResult back;
    ASSERT_TRUE(deserializeEntry(serializeEntry(e), back));
    EXPECT_EQ(back.kind, JobKind::Permute);
    expectSamePermuteVerdict(e.verdict, back.verdict);
}

// --------------------------------------------- end-to-end experiments

TEST(PermuteJobs, EngineDispatchMatchesDirectCall)
{
    setLogQuiet(true);
    JobSet set;
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Release;
    cfg.numCores = 4;
    set.addPermute("queue", cfg, tinyParams(), 20000, 4096, 1);

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runJobs(set.jobs(), opt);
    ASSERT_EQ(sr.jobs.size(), 1u);
    EXPECT_TRUE(sr.hasPermuteJobs());
    EXPECT_FALSE(sr.hasCrashJobs());

    PermuteSpec spec;
    const CrashRunResult direct = runPermuteExperiment(
        "queue", sr.jobs[0].cfg, sr.jobs[0].params, 20000, spec);
    expectSamePermuteVerdict(direct.verdict, sr.verdicts[0]);
    EXPECT_TRUE(sr.verdicts[0].consistent) << sr.verdicts[0].message;
    EXPECT_EQ(sr.verdicts[0].statesChecked,
              sr.verdicts[0].statesReachable);
    EXPECT_FALSE(sr.verdicts[0].truncated);
}

TEST(PermuteJobs, AllModelsExhaustiveAndConsistent)
{
    setLogQuiet(true);
    // The acceptance sweep: every model, several crash points, full
    // coverage (the exhaustive bound is generous for 20-op runs) and
    // zero inconsistent states.
    const ModelPair models[] = {
        {ModelKind::Baseline, PersistencyModel::Epoch},
        {ModelKind::Hops, PersistencyModel::Epoch},
        {ModelKind::Eadr, PersistencyModel::Epoch},
        {ModelKind::Asap, PersistencyModel::Release},
    };
    for (const ModelPair &m : models) {
        SimConfig cfg;
        cfg.model = m.first;
        cfg.persistency = m.second;
        cfg.numCores = 4;
        for (Tick t : {4000u, 12000u, 20000u}) {
            PermuteSpec spec;
            const CrashRunResult r = runPermuteExperiment(
                "queue", cfg, tinyParams(), t, spec);
            EXPECT_TRUE(r.verdict.consistent)
                << toString(m.first) << "/" << toString(m.second)
                << " @ " << t << ": " << r.verdict.message;
            EXPECT_EQ(r.verdict.statesChecked,
                      r.verdict.statesReachable);
            EXPECT_FALSE(r.verdict.truncated);
            EXPECT_GE(r.verdict.statesChecked, 1u);
        }
    }
}

TEST(PermuteJobs, CampaignWorkerCountInvariant)
{
    setLogQuiet(true);
    CampaignSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.params = tinyParams();
    spec.ticksPerConfig = 10;
    spec.sweepKind = JobKind::Permute;

    ResultCache serialCache, parallelCache;
    RunOptions serial;
    serial.jobs = 1;
    serial.cache = &serialCache;
    RunOptions parallel;
    parallel.jobs = 8;
    parallel.cache = &parallelCache;

    const CampaignResult s = runCampaign(spec, serial);
    const CampaignResult p = runCampaign(spec, parallel);
    EXPECT_TRUE(s.allConsistent());
    ASSERT_EQ(s.crashPoints(), p.crashPoints());
    for (std::size_t i = 0; i < s.crashPoints(); ++i) {
        EXPECT_EQ(s.sweep.jobs[i].kind, JobKind::Permute);
        expectSamePermuteVerdict(s.sweep.verdicts[i],
                                 p.sweep.verdicts[i]);
    }
}

TEST(PermuteJobs, FaultHookFindsInconsistencyWithWorkingRepro)
{
    setLogQuiet(true);
    // A deliberately broken recovery policy (drop-undo fault) must
    // yield at least one inconsistent state across a tick sweep, and
    // the reported state mask must replay to the same verdict.
    CampaignSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.params = tinyParams();
    spec.params.opsPerThread = 60;
    spec.ticksPerConfig = 24;
    spec.sweepKind = JobKind::Permute;
    spec.permuteFault = "drop-undo";

    ResultCache cache;
    RunOptions opt;
    opt.jobs = 4;
    opt.cache = &cache;
    const CampaignResult cr = runCampaign(spec, opt);
    ASSERT_FALSE(cr.allConsistent())
        << "drop-undo fault never produced an inconsistent state; "
           "widen the tick sweep";

    const std::size_t bad = cr.badJobs.front();
    const CrashVerdict &v = cr.sweep.verdicts[bad];
    EXPECT_GT(v.inconsistentStates, 0u);
    ASSERT_FALSE(v.firstBadState.empty());

    // The one-line repro names the permute bench, the fault and the
    // state mask.
    const std::string line =
        reproCommand(cr.sweep.jobs[bad], v.firstBadState);
    EXPECT_NE(line.find("crash_permute"), std::string::npos);
    EXPECT_NE(line.find("--inject-fault drop-undo"),
              std::string::npos);
    EXPECT_NE(line.find("--state " + v.firstBadState),
              std::string::npos);

    // Replaying exactly that single state reproduces the violation.
    PermuteSpec rspec;
    rspec.fault = "drop-undo";
    rspec.onlyState = v.firstBadState;
    const CrashRunResult replay = runPermuteExperiment(
        cr.sweep.jobs[bad].workload, cr.sweep.jobs[bad].cfg,
        cr.sweep.jobs[bad].params, cr.sweep.jobs[bad].crashTick,
        rspec);
    EXPECT_FALSE(replay.verdict.consistent);
    EXPECT_EQ(replay.verdict.statesChecked, 1u);
    EXPECT_EQ(replay.verdict.message, v.message);

    // Without the fault the same crash points are all consistent:
    // the violations came from the injected fault, not the model.
    CampaignSpec clean = spec;
    clean.permuteFault.clear();
    ResultCache cleanCache;
    RunOptions cleanOpt;
    cleanOpt.jobs = 4;
    cleanOpt.cache = &cleanCache;
    EXPECT_TRUE(runCampaign(clean, cleanOpt).allConsistent());
}

TEST(PermuteJobs, EmittersCarryCoverageOnlyForPermuteSweeps)
{
    setLogQuiet(true);
    JobSet set;
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Release;
    set.addPermute("queue", cfg, tinyParams(), 4000, 4096, 1);

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runJobs(set.jobs(), opt);

    std::ostringstream json;
    emitJson(json, sr);
    EXPECT_NE(json.str().find("\"kind\": \"permute\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"statesChecked\": "),
              std::string::npos);
    EXPECT_NE(json.str().find("\"statesReachable\": "),
              std::string::npos);
    EXPECT_NE(json.str().find("\"truncated\": "), std::string::npos);

    std::ostringstream csv;
    emitCsv(csv, sr);
    EXPECT_NE(csv.str().find(",statesChecked,statesReachable,"),
              std::string::npos);

    // Legacy crash sweeps keep their schema: no coverage columns.
    JobSet crashSet;
    crashSet.addCrash("queue", cfg, tinyParams(), 4000);
    const SweepResult crashSr = runJobs(crashSet.jobs(), opt);
    std::ostringstream crashCsv;
    emitCsv(crashCsv, crashSr);
    EXPECT_EQ(crashCsv.str().find("statesChecked"), std::string::npos);
    std::ostringstream crashJson;
    emitJson(crashJson, crashSr);
    EXPECT_EQ(crashJson.str().find("statesChecked"),
              std::string::npos);
}

} // namespace
} // namespace asap
