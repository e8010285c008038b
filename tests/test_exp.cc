/**
 * @file
 * Tests for the experiment-orchestration subsystem (src/exp/):
 * sweep expansion, cache keys and tiers, thread-pool behaviour,
 * deterministic parallel execution and dedup accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>

#include "exp/cache.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
#include "exp/pool.hh"
#include "exp/sweep.hh"
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
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.persistency, b.persistency);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.media, b.media);
    for (const ResultField &f : kResultFields) {
        if (f.count) {
            EXPECT_EQ(a.*f.count, b.*f.count) << f.name;
        } else {
            EXPECT_DOUBLE_EQ(a.*f.real, b.*f.real) << f.name;
        }
    }
}

/** First value everyField() assigns; later rows count up from it. */
constexpr std::uint64_t kFirstFieldValue = 1000;

/** A Run entry with every kResultFields field set to a distinct
 *  non-zero value and a non-default media label: a codec that reads
 *  any field into the wrong member fails expectSameResult. */
CachedResult
everyField()
{
    CachedResult e;
    RunResult &r = e.run;
    r.workload = "queue";
    r.model = ModelKind::Hops;
    r.persistency = PersistencyModel::Epoch;
    r.cores = 8;
    r.media = "cxl-flash";
    std::uint64_t next = kFirstFieldValue;
    for (const ResultField &f : kResultFields) {
        if (f.count)
            r.*f.count = next++;
        else
            r.*f.real = 3.25;
    }
    return e;
}

TEST(SweepSpec, ExpandsCrossProductInTableOrder)
{
    SweepSpec spec;
    spec.workloads = {"queue", "cceh"};
    spec.models = {{ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {1, 4};
    spec.params = tinyParams();

    EXPECT_EQ(spec.jobCount(), 8u);
    const std::vector<ExperimentJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 8u);

    // Workload-major, models next, core counts innermost.
    EXPECT_EQ(jobs[0].workload, "queue");
    EXPECT_EQ(jobs[0].cfg.model, ModelKind::Hops);
    EXPECT_EQ(jobs[0].cfg.numCores, 1u);
    EXPECT_EQ(jobs[1].cfg.numCores, 4u);
    EXPECT_EQ(jobs[2].cfg.model, ModelKind::Asap);
    EXPECT_EQ(jobs[4].workload, "cceh");
    for (const ExperimentJob &j : jobs) {
        EXPECT_EQ(j.params.opsPerThread, 20u);
        EXPECT_EQ(j.cfg.seed, 7u);
    }
}

TEST(SweepSpec, JobSetReturnsIndices)
{
    JobSet set;
    const std::size_t a = set.add("queue", ModelKind::Asap,
                                  PersistencyModel::Release, 4,
                                  tinyParams());
    SimConfig cfg;
    cfg.rtEntries = 8;
    const std::size_t b = set.add("cceh", cfg, tinyParams());
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(set.jobs()[1].cfg.rtEntries, 8u);
    EXPECT_EQ(set.jobs()[1].cfg.seed, tinyParams().seed);
}

TEST(Cache, KeyIsStableAndSensitive)
{
    JobSet set;
    set.add("queue", ModelKind::Asap, PersistencyModel::Release, 4,
            tinyParams());
    set.add("queue", ModelKind::Asap, PersistencyModel::Release, 4,
            tinyParams());
    const std::string k0 = jobKey(set.jobs()[0]);
    EXPECT_EQ(k0, jobKey(set.jobs()[1])); // identical job, same key

    // Any differing knob must change the key.
    ExperimentJob j = set.jobs()[0];
    j.workload = "cceh";
    EXPECT_NE(jobKey(j), k0);
    j = set.jobs()[0];
    j.cfg.model = ModelKind::Hops;
    EXPECT_NE(jobKey(j), k0);
    j = set.jobs()[0];
    j.cfg.rtEntries = 16;
    EXPECT_NE(jobKey(j), k0);
    j = set.jobs()[0];
    j.params.opsPerThread = 21;
    EXPECT_NE(jobKey(j), k0);
    j = set.jobs()[0];
    j.params.seed = 8;
    EXPECT_NE(jobKey(j), k0);
}

TEST(Cache, EveryKeyedConfigKnobIsOverridable)
{
    // describeJob() keys every SimConfig knob, so every one of them
    // changes results, and SimConfig::override (asap_run's key=value
    // CLI) must be able to set each. Set a different value through
    // override() and read it back from the re-rendered key.
    JobSet set;
    set.add("queue", ModelKind::Asap, PersistencyModel::Release, 4,
            tinyParams());
    ExperimentJob base = set.jobs()[0];
    base.cfg.mediaPerMc = "dram"; // rendered only when set

    // "k=v" tokens; some lines carry two ("l1Sets=64 l1Ways=8").
    auto fields = [](const ExperimentJob &job) {
        std::vector<std::pair<std::string, std::string>> out;
        std::istringstream is(describeJob(job));
        std::string tok;
        while (is >> tok) {
            const std::size_t eq = tok.find('=');
            if (eq != std::string::npos)
                out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
        }
        return out;
    };
    auto valueOf = [&](const ExperimentJob &job, const std::string &k) {
        for (const auto &[key, value] : fields(job)) {
            if (key == k)
                return value;
        }
        return std::string("<missing>");
    };
    const std::vector<std::string> notSimConfig = {
        "salt", "workload", "opsPerThread", "keySpace", "valueBytes",
        "updatePct", "paramSeed"};

    std::size_t tested = 0;
    for (const auto &[key, value] : fields(base)) {
        if (std::find(notSimConfig.begin(), notSimConfig.end(), key) !=
            notSimConfig.end())
            continue;
        std::string next = value == "7" ? "9" : "7";
        if (key == "model")
            next = value == "hops" ? "asap" : "hops";
        else if (key == "persistency")
            next = value == "ep" ? "rp" : "ep";
        else if (key == "media" || key == "mediaPerMc")
            next = value == "slow-nvm" ? "cxl-dram" : "slow-nvm";
        ExperimentJob j = base;
        j.cfg.override(key + "=" + next);
        EXPECT_EQ(valueOf(j, key), next) << key;
        ++tested;
    }
    EXPECT_GT(tested, 40u);
}

TEST(Cache, ResultSerializationRoundTrips)
{
    const CachedResult e = everyField();
    // Every row names its own member: no row overwrote another's.
    std::uint64_t next = kFirstFieldValue;
    for (const ResultField &f : kResultFields) {
        if (f.count) {
            EXPECT_EQ(e.run.*f.count, next++) << f.name;
        }
    }

    CachedResult back;
    ASSERT_TRUE(deserializeEntry(serializeEntry(e), back));
    EXPECT_EQ(back.kind, JobKind::Run);
    expectSameResult(e.run, back.run);

    // Truncated text must be rejected, not half-parsed.
    const std::string text = serializeEntry(e);
    EXPECT_FALSE(
        deserializeEntry(text.substr(0, text.size() / 2), back));
}

TEST(Cache, MemoryTierHitsAndMisses)
{
    ResultCache cache;
    CachedResult e;
    e.run.workload = "queue";
    e.run.runTicks = 99;

    CachedResult out;
    EXPECT_FALSE(cache.lookup("exp-k1", out));
    cache.insert("exp-k1", e);
    EXPECT_TRUE(cache.lookup("exp-k1", out));
    EXPECT_EQ(out.run.runTicks, 99u);
    EXPECT_EQ(cache.stats().memHits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits(), 1u);
}

TEST(Cache, DefaultRunResultRoundTripsOverDirtyStorage)
{
    // A default-constructed RunResult must not inherit whatever bytes
    // its storage held: every field, the enums included, has a
    // default that the cache codec can write and read back.
    alignas(RunResult) unsigned char storage[sizeof(RunResult)];
    std::memset(storage, 0xA5, sizeof(storage));
    RunResult *r = ::new (static_cast<void *>(storage)) RunResult;
    EXPECT_EQ(toString(r->model), "asap");
    EXPECT_EQ(toString(r->persistency), "rp");

    CachedResult e;
    e.run = *r;
    e.run.workload = "cceh"; // the codec has no empty-workload form
    r->~RunResult();
    // A garbage enum serializes as "?", which the parser rejects
    // fatally: stop here rather than take the test binary down.
    ASSERT_FALSE(HasFailure());
    CachedResult back;
    ASSERT_TRUE(deserializeEntry(serializeEntry(e), back));
    EXPECT_EQ(back.run.model, ModelKind::Asap);
    EXPECT_EQ(back.run.persistency, PersistencyModel::Release);
    expectSameResult(e.run, back.run);
}

TEST(Cache, DiskTierSurvivesProcessCacheLoss)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "asap_exp_cache_test")
            .string();
    std::filesystem::remove_all(dir);

    const CachedResult e = everyField();
    {
        ResultCache writer(dir);
        writer.insert("exp-disk1", e);
    }
    // A fresh cache (≈ new process) must find it on disk.
    ResultCache reader(dir);
    CachedResult out;
    ASSERT_TRUE(reader.lookup("exp-disk1", out));
    expectSameResult(e.run, out.run);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    // Promoted to memory: the second lookup is a memory hit.
    ASSERT_TRUE(reader.lookup("exp-disk1", out));
    EXPECT_EQ(reader.stats().memHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Cache, RejectsEntriesFromAnotherCodeVersion)
{
    CachedResult e;
    e.run.workload = "queue";
    e.run.model = ModelKind::Asap;
    e.run.persistency = PersistencyModel::Release;
    e.run.runTicks = 42;

    // Every serialized entry carries the running code's salt...
    const std::string text = serializeEntry(e);
    const std::string saltLine =
        std::string("codeSalt ") + cacheCodeSalt() + "\n";
    ASSERT_EQ(text.rfind(saltLine, 0), 0u);

    // ...and an entry stamped by a different version must miss with a
    // reason, not deserialize into stale results.
    const std::string stale =
        "codeSalt different-version\n" + text.substr(saltLine.size());
    CachedResult out;
    std::string why;
    EXPECT_FALSE(deserializeEntry(stale, out, &why));
    EXPECT_NE(why.find("code-salt mismatch"), std::string::npos);

    // Entries written before the salt line existed still load.
    CachedResult legacy;
    EXPECT_TRUE(
        deserializeEntry(text.substr(saltLine.size()), legacy, &why))
        << why;
    EXPECT_EQ(legacy.run.runTicks, 42u);
}

TEST(Cache, CleansStaleTmpDroppings)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "asap_exp_tmpclean").string();
    fs::remove_all(dir);
    fs::create_directories(dir);

    const auto touch = [&](const std::string &name) {
        std::ofstream(dir + "/" + name) << "x";
        return dir + "/" + name;
    };
    const std::string stale = touch("exp-1.tmp.123");
    const std::string fresh = touch("exp-2.tmp.456");
    const std::string entry = touch("exp-3");
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));

    // Only tmp files older than the threshold go; a live writer's
    // fresh tmp and real entries stay.
    EXPECT_EQ(cleanStaleCacheTmp(dir, 3600.0), 1u);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
    EXPECT_TRUE(fs::exists(entry));
    fs::remove_all(dir);
}

TEST(Pool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);

    // The pool stays usable after a wait().
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(Pool, WaitWithNoTasksReturns)
{
    ThreadPool pool(2);
    pool.wait(); // must not deadlock
}

TEST(Engine, ParallelMatchesSerialExactly)
{
    setLogQuiet(true);
    SweepSpec spec;
    spec.workloads = {"queue", "cceh"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release},
                   {ModelKind::Hops, PersistencyModel::Release}};
    spec.coreCounts = {2};
    spec.params = tinyParams();

    ResultCache serialCache, parallelCache;
    RunOptions serial;
    serial.jobs = 1;
    serial.cache = &serialCache;
    RunOptions parallel;
    parallel.jobs = 8;
    parallel.cache = &parallelCache;

    const SweepResult s = runSweep(spec, serial);
    const SweepResult p = runSweep(spec, parallel);
    ASSERT_EQ(s.results.size(), 4u);
    ASSERT_EQ(p.results.size(), 4u);
    for (std::size_t i = 0; i < s.results.size(); ++i) {
        expectSameResult(s.results[i], p.results[i]);
        // And both must match a direct runExperiment.
        const ExperimentJob &j = s.jobs[i];
        RunResult direct =
            runExperiment(j.workload, j.cfg, j.params);
        expectSameResult(s.results[i], direct);
    }
}

TEST(Engine, DuplicateJobsSimulateOnce)
{
    setLogQuiet(true);
    JobSet set;
    // The shared-baseline-column shape: the same config repeated.
    for (int i = 0; i < 5; ++i) {
        set.add("queue", ModelKind::Baseline,
                PersistencyModel::Release, 2, tinyParams());
    }
    set.add("queue", ModelKind::Asap, PersistencyModel::Release, 2,
            tinyParams());

    ResultCache cache;
    RunOptions opt;
    opt.jobs = 4;
    opt.cache = &cache;
    const SweepResult sr = runJobs(set.jobs(), opt);

    EXPECT_EQ(sr.uniqueRuns, 2u);  // baseline once + asap once
    EXPECT_EQ(sr.cacheHits, 4u);   // four duplicate baseline jobs
    for (std::size_t i = 1; i < 5; ++i)
        expectSameResult(sr.results[0], sr.results[i]);

    // A second sweep over the same cache is served entirely from it.
    const SweepResult again = runJobs(set.jobs(), opt);
    EXPECT_EQ(again.uniqueRuns, 0u);
    EXPECT_EQ(again.cacheHits, 6u);
    for (std::size_t i = 0; i < sr.results.size(); ++i)
        expectSameResult(sr.results[i], again.results[i]);
}

TEST(Engine, TraceMemoizationCountsHitsAndMisses)
{
    setLogQuiet(true);
    clearTraceCache();

    // Three models over the same (workload, cores, params) tuple: the
    // trace is generated once and reused twice, whatever order the
    // pool runs the jobs in (waiters block on the entry, then hit).
    JobSet set;
    set.add("queue", ModelKind::Baseline, PersistencyModel::Release, 2,
            tinyParams());
    set.add("queue", ModelKind::Hops, PersistencyModel::Release, 2,
            tinyParams());
    set.add("queue", ModelKind::Asap, PersistencyModel::Release, 2,
            tinyParams());

    ResultCache cache;
    RunOptions opt;
    opt.jobs = 4;
    opt.cache = &cache;
    const SweepResult sr = runJobs(set.jobs(), opt);
    EXPECT_EQ(sr.uniqueRuns, 3u);
    EXPECT_EQ(sr.traceMisses, 1u);
    EXPECT_EQ(sr.traceHits, 2u);

    // Memoisation must not leak results across configs: a direct,
    // uncached run of each job still matches.
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const ExperimentJob &j = sr.jobs[i];
        RunResult direct = runExperiment(j.workload, j.cfg, j.params);
        expectSameResult(sr.results[i], direct);
    }

    // The counters are process-global and monotonic.
    const TraceCacheStats stats = traceCacheStats();
    EXPECT_GE(stats.hits, 2u);
    EXPECT_GE(stats.misses, 1u);
}

TEST(Engine, FindLocatesResultsByTuple)
{
    setLogQuiet(true);
    SweepSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {1, 2};
    spec.params = tinyParams();

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runSweep(spec, opt);
    const RunResult *r = sr.find("queue", ModelKind::Asap,
                                 PersistencyModel::Release, 2);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->cores, 2u);
    EXPECT_EQ(sr.find("queue", ModelKind::Hops,
                      PersistencyModel::Release, 2),
              nullptr);
}

TEST(Emit, JsonAndCsvCarryEveryJob)
{
    setLogQuiet(true);
    SweepSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release},
                   {ModelKind::Hops, PersistencyModel::Release}};
    spec.coreCounts = {2};
    spec.params = tinyParams();
    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runSweep(spec, opt);

    std::ostringstream json;
    emitJson(json, sr);
    EXPECT_NE(json.str().find("\"uniqueRuns\": 2"), std::string::npos);
    EXPECT_NE(json.str().find("\"model\": \"asap\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"model\": \"hops\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"runTicks\": "), std::string::npos);
    // The sweep header reports trace-memoisation accounting.
    EXPECT_NE(json.str().find("\"traceHits\": "), std::string::npos);
    EXPECT_NE(json.str().find("\"traceMisses\": "), std::string::npos);

    std::ostringstream csv;
    emitCsv(csv, sr);
    // Header + one row per job.
    std::size_t lines = 0;
    for (char c : csv.str())
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + sr.jobs.size());
}

} // namespace
} // namespace asap
