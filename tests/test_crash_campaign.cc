/**
 * @file
 * Tests for the crash-injection campaign subsystem: tick selection
 * strategies, the Crash job kind through the engine (dispatch, cache
 * tiers, verdict assembly), campaign accounting, warm reruns, repro
 * lines, and the worker-count independence of verdict tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "exp/cache.hh"
#include "exp/crash_campaign.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
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
expectSameVerdict(const CrashVerdict &a, const CrashVerdict &b)
{
    EXPECT_EQ(a.consistent, b.consistent);
    EXPECT_EQ(a.message, b.message);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.actualTick, b.actualTick);
    EXPECT_EQ(a.committedUpTo, b.committedUpTo);
    EXPECT_EQ(a.storesLogged, b.storesLogged);
    EXPECT_EQ(a.linesSurvived, b.linesSurvived);
    EXPECT_EQ(a.undoReplayed, b.undoReplayed);
    EXPECT_EQ(a.adrDrainWrites, b.adrDrainWrites);
}

// ---------------------------------------------------- tick selection

TEST(TickSelection, StrategiesStayInBoundsAndAreDeterministic)
{
    for (TickStrategy s : {TickStrategy::Stride,
                           TickStrategy::EpochBiased,
                           TickStrategy::Random}) {
        const std::vector<Tick> a =
            selectCrashTicks(s, 100000, 200, 4, 50, 11);
        const std::vector<Tick> b =
            selectCrashTicks(s, 100000, 200, 4, 50, 11);
        ASSERT_EQ(a.size(), 50u) << toString(s);
        EXPECT_EQ(a, b) << toString(s) << " must be deterministic";
        for (Tick t : a) {
            EXPECT_GE(t, 1u) << toString(s);
            EXPECT_LE(t, 100000u) << toString(s);
        }
    }
    // Different seeds move the random strategy.
    EXPECT_NE(selectCrashTicks(TickStrategy::Random, 100000, 200, 4,
                               50, 11),
              selectCrashTicks(TickStrategy::Random, 100000, 200, 4,
                               50, 12));
}

TEST(TickSelection, StrideCoversTheRun)
{
    const std::vector<Tick> t =
        selectCrashTicks(TickStrategy::Stride, 1000, 10, 4, 10, 1);
    ASSERT_EQ(t.size(), 10u);
    EXPECT_EQ(t.front(), 100u);
    EXPECT_EQ(t.back(), 1000u);
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
}

TEST(TickSelection, DegenerateRunsStillProduceValidTicks)
{
    for (TickStrategy s : {TickStrategy::Stride,
                           TickStrategy::EpochBiased,
                           TickStrategy::Random}) {
        // Zero-length run, zero epochs: every tick must still be >= 1.
        for (Tick t : selectCrashTicks(s, 0, 0, 0, 8, 3)) {
            EXPECT_GE(t, 1u);
            EXPECT_LE(t, 1u);
        }
    }
}

TEST(TickSelection, ParseAndPrintRoundTrip)
{
    EXPECT_EQ(parseTickStrategy("stride"), TickStrategy::Stride);
    EXPECT_EQ(parseTickStrategy("epoch"), TickStrategy::EpochBiased);
    EXPECT_EQ(parseTickStrategy("random"), TickStrategy::Random);
    EXPECT_EQ(toString(TickStrategy::EpochBiased), "epoch");
}

// ------------------------------------------------- crash job plumbing

TEST(CrashJobs, KeyDependsOnKindAndTick)
{
    JobSet set;
    set.add("queue", ModelKind::Asap, PersistencyModel::Release, 4,
            tinyParams());
    const std::string runKey = jobKey(set.jobs()[0]);

    ExperimentJob crash = set.jobs()[0];
    crash.kind = JobKind::Crash;
    crash.crashTick = 5000;
    EXPECT_NE(jobKey(crash), runKey);

    ExperimentJob other = crash;
    other.crashTick = 5001;
    EXPECT_NE(jobKey(other), jobKey(crash));
}

TEST(CrashJobs, EntrySerializationRoundTripsVerdicts)
{
    CachedResult e;
    e.kind = JobKind::Crash;
    e.run.workload = "cceh";
    e.run.model = ModelKind::Asap;
    e.run.persistency = PersistencyModel::Release;
    e.run.runTicks = 4242;
    e.verdict.consistent = false;
    e.verdict.message = "epoch (t1,e3) lost a write: line 77";
    e.verdict.crashTick = 4242;
    e.verdict.actualTick = 4242;
    e.verdict.committedUpTo = {3, 1, 0, 7};
    e.verdict.storesLogged = 99;
    e.verdict.linesSurvived = 55;
    e.verdict.undoReplayed = 4;
    e.verdict.adrDrainWrites = 6;

    CachedResult back;
    ASSERT_TRUE(deserializeEntry(serializeEntry(e), back));
    EXPECT_EQ(back.kind, JobKind::Crash);
    EXPECT_EQ(back.run.workload, "cceh");
    EXPECT_EQ(back.run.runTicks, 4242u);
    expectSameVerdict(e.verdict, back.verdict);

    // Run entries keep the original stat wire format, prefixed by
    // the code-version stamp: no kind line, stats right after the salt.
    CachedResult runEntry;
    runEntry.run.workload = "queue";
    runEntry.run.model = ModelKind::Hops;
    runEntry.run.persistency = PersistencyModel::Epoch;
    const std::string runText = serializeEntry(runEntry);
    EXPECT_EQ(runText.rfind(std::string("codeSalt ") + cacheCodeSalt() +
                                "\nworkload queue\nmodel hops\n",
                            0),
              0u);
    EXPECT_EQ(runText.find("kind "), std::string::npos);

    // Truncation is rejected.
    const std::string text = serializeEntry(e);
    EXPECT_FALSE(deserializeEntry(text.substr(0, text.size() / 2),
                                  back));
}

TEST(CrashJobs, DiskTierPersistsVerdicts)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "asap_crash_cache_test")
            .string();
    std::filesystem::remove_all(dir);

    CachedResult e;
    e.kind = JobKind::Crash;
    e.run.workload = "queue";
    e.run.model = ModelKind::Asap;
    e.run.persistency = PersistencyModel::Release;
    e.verdict.consistent = true;
    e.verdict.crashTick = 123;
    e.verdict.committedUpTo = {1, 2};
    {
        ResultCache writer(dir);
        writer.insert("exp-crash1", e);
    }
    ResultCache reader(dir);
    CachedResult out;
    ASSERT_TRUE(reader.lookup("exp-crash1", out));
    EXPECT_EQ(out.kind, JobKind::Crash);
    expectSameVerdict(e.verdict, out.verdict);
    std::filesystem::remove_all(dir);
}

TEST(CrashJobs, EngineDispatchMatchesDirectCall)
{
    setLogQuiet(true);
    JobSet set;
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.numCores = 4;
    set.addCrash("cceh", cfg, tinyParams(), 20000);

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runJobs(set.jobs(), opt);
    ASSERT_EQ(sr.jobs.size(), 1u);
    EXPECT_TRUE(sr.hasCrashJobs());

    const CrashRunResult direct = runCrashExperiment(
        "cceh", sr.jobs[0].cfg, sr.jobs[0].params, 20000);
    expectSameVerdict(direct.verdict, sr.verdicts[0]);
    EXPECT_EQ(direct.run.runTicks, sr.results[0].runTicks);
    EXPECT_EQ(direct.run.pmWrites, sr.results[0].pmWrites);
    EXPECT_TRUE(sr.verdicts[0].consistent)
        << sr.verdicts[0].message;
}

// ----------------------------------------------------- the campaign

TEST(Campaign, SmallCampaignAllConsistentAndWorkerCountInvariant)
{
    setLogQuiet(true);
    CampaignSpec spec;
    spec.workloads = {"queue", "cceh"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Epoch}};
    spec.params = tinyParams();
    spec.ticksPerConfig = 20;

    ResultCache serialCache, parallelCache;
    RunOptions serial;
    serial.jobs = 1;
    serial.cache = &serialCache;
    RunOptions parallel;
    parallel.jobs = 8;
    parallel.cache = &parallelCache;

    const CampaignResult s = runCampaign(spec, serial);
    const CampaignResult p = runCampaign(spec, parallel);

    // 2 workloads x 2 models x 20 ticks.
    EXPECT_EQ(s.crashPoints(), 80u);
    ASSERT_EQ(s.rows.size(), 4u);

    // Every verdict consistent (the paper's Theorem 2, fuzzed).
    EXPECT_TRUE(s.allConsistent());
    for (const CampaignRow &row : s.rows) {
        EXPECT_EQ(row.consistent, row.points);
        EXPECT_GT(row.probeTicks, 0u);
        EXPECT_GT(row.probeEpochs, 0u);
    }

    // jobs=1 and jobs=8 produce identical verdict tables.
    ASSERT_EQ(p.crashPoints(), s.crashPoints());
    for (std::size_t i = 0; i < s.crashPoints(); ++i) {
        EXPECT_EQ(s.sweep.jobs[i].workload, p.sweep.jobs[i].workload);
        EXPECT_EQ(s.sweep.jobs[i].crashTick,
                  p.sweep.jobs[i].crashTick);
        expectSameVerdict(s.sweep.verdicts[i], p.sweep.verdicts[i]);
    }
    for (std::size_t r = 0; r < s.rows.size(); ++r) {
        EXPECT_EQ(s.rows[r].points, p.rows[r].points);
        EXPECT_EQ(s.rows[r].consistent, p.rows[r].consistent);
    }
}

TEST(Campaign, WarmCacheServesTheWholeCampaign)
{
    setLogQuiet(true);
    CampaignSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.params = tinyParams();
    spec.ticksPerConfig = 6;

    ResultCache cache;
    RunOptions opt;
    opt.jobs = 2;
    opt.cache = &cache;
    const CampaignResult cold = runCampaign(spec, opt);
    EXPECT_GT(cold.sweep.uniqueRuns, 0u);
    const std::uint64_t coldMisses = cache.stats().misses;
    const CampaignResult warm = runCampaign(spec, opt);

    // Nothing simulates on the warm run, probes included: every probe
    // and crash job is a result-cache hit.
    EXPECT_EQ(cache.stats().misses, coldMisses);
    EXPECT_EQ(warm.sweep.uniqueRuns, 0u);
    EXPECT_EQ(warm.sweep.cacheHits, warm.crashPoints());
    for (std::size_t i = 0; i < warm.crashPoints(); ++i)
        expectSameVerdict(cold.sweep.verdicts[i],
                          warm.sweep.verdicts[i]);

    ASSERT_EQ(warm.rows.size(), cold.rows.size());
    for (std::size_t i = 0; i < warm.rows.size(); ++i) {
        EXPECT_EQ(warm.rows[i].probeTicks, cold.rows[i].probeTicks);
        EXPECT_EQ(warm.rows[i].probeEpochs, cold.rows[i].probeEpochs);
        EXPECT_EQ(warm.rows[i].consistent, cold.rows[i].consistent);
    }
    std::ostringstream coldCsv, warmCsv;
    emitCsv(coldCsv, cold.sweep);
    emitCsv(warmCsv, warm.sweep);
    EXPECT_EQ(warmCsv.str(), coldCsv.str());
}

TEST(Campaign, ReproCommandNamesEveryCoordinate)
{
    JobSet set;
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Epoch;
    cfg.numCores = 8;
    WorkloadParams p = tinyParams();
    set.addCrash("p-art", cfg, p, 31337);
    const std::string line = reproCommand(set.jobs()[0]);
    EXPECT_NE(line.find("--repro"), std::string::npos);
    EXPECT_NE(line.find("--workload p-art"), std::string::npos);
    EXPECT_NE(line.find("--model asap"), std::string::npos);
    EXPECT_NE(line.find("--pm ep"), std::string::npos);
    EXPECT_NE(line.find("--cores 8"), std::string::npos);
    EXPECT_NE(line.find("--ops 20"), std::string::npos);
    EXPECT_NE(line.find("--seed 7"), std::string::npos);
    EXPECT_NE(line.find("--crash-tick 31337"), std::string::npos);
}

TEST(Campaign, EmittersCarryVerdictFields)
{
    setLogQuiet(true);
    JobSet set;
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    set.addCrash("queue", cfg, tinyParams(), 4000);

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runJobs(set.jobs(), opt);

    std::ostringstream json;
    emitJson(json, sr);
    EXPECT_NE(json.str().find("\"kind\": \"crash\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"crashTick\": 4000"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"consistent\": "), std::string::npos);
    EXPECT_NE(json.str().find("\"committedUpTo\": ["),
              std::string::npos);

    std::ostringstream csv;
    emitCsv(csv, sr);
    EXPECT_NE(csv.str().find(",kind,crashTick,"), std::string::npos);
    EXPECT_NE(csv.str().find(",crash,4000,"), std::string::npos);
}

} // namespace
} // namespace asap
