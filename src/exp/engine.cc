#include "exp/engine.hh"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "exp/pool.hh"
#include "serve/scenario.hh"

namespace asap
{

bool
SweepResult::hasCrashJobs() const
{
    for (const ExperimentJob &j : jobs) {
        if (j.kind == JobKind::Crash)
            return true;
    }
    return false;
}

bool
SweepResult::hasNonDefaultMedia() const
{
    for (const ExperimentJob &j : jobs) {
        if (j.cfg.mediaProfile != kDefaultMediaProfile ||
            !j.cfg.mediaPerMc.empty())
            return true;
    }
    return false;
}

bool
SweepResult::hasServeJobs() const
{
    for (const ExperimentJob &j : jobs) {
        if (isServeWorkload(j.workload))
            return true;
    }
    return false;
}

bool
SweepResult::hasPermuteJobs() const
{
    for (const ExperimentJob &j : jobs) {
        if (j.kind == JobKind::Permute)
            return true;
    }
    return false;
}

std::vector<std::size_t>
SweepResult::inconsistentJobs() const
{
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].kind != JobKind::Run && !verdicts[i].consistent)
            bad.push_back(i);
    }
    return bad;
}

const RunResult *
SweepResult::find(const std::string &workload, ModelKind model,
                  PersistencyModel pm, unsigned cores) const
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ExperimentJob &j = jobs[i];
        if (j.workload == workload && j.cfg.model == model &&
            j.cfg.persistency == pm && j.cfg.numCores == cores) {
            return &results[i];
        }
    }
    return nullptr;
}

namespace
{

/**
 * Simulate one job (no cache, no pool): run or crash-inject as the
 * kind demands and return the tagged payload. runJobs() wraps it in
 * dedup + cache + assembly.
 */
CachedResult
executeJob(const ExperimentJob &job)
{
    CachedResult e;
    e.kind = job.kind;
    if (job.kind == JobKind::Crash) {
        CrashRunResult cr = runCrashExperiment(job.workload, job.cfg,
                                               job.params,
                                               job.crashTick);
        e.run = std::move(cr.run);
        e.verdict = std::move(cr.verdict);
    } else if (job.kind == JobKind::Permute) {
        PermuteSpec spec;
        spec.bound = job.permuteBound;
        spec.sampleSeed = job.permuteSeed;
        spec.fault = job.permuteFault;
        spec.onlyState = job.permuteState;
        spec.engine = job.permuteEngine;
        spec.threads = job.permuteThreads;
        CrashRunResult cr = runPermuteExperiment(
            job.workload, job.cfg, job.params, job.crashTick, spec);
        e.run = std::move(cr.run);
        e.verdict = std::move(cr.verdict);
    } else {
        e.run = runExperiment(job.workload, job.cfg, job.params);
    }
    return e;
}

} // namespace

SweepResult
runJobs(std::vector<ExperimentJob> jobs, const RunOptions &opt)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult sr;
    sr.jobs = std::move(jobs);
    sr.results.resize(sr.jobs.size());
    sr.verdicts.resize(sr.jobs.size());

    ResultCache &cache = opt.cache ? *opt.cache : processCache();
    const CacheStats before = cache.stats();
    const TraceCacheStats traceBefore = traceCacheStats();

    // Deduplicate: the first job with a given key is its group's
    // leader and the only one that may simulate; duplicates copy the
    // leader's result afterwards.
    std::vector<std::string> keys(sr.jobs.size());
    std::unordered_map<std::string, std::size_t> leaderOf;
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        keys[i] = jobKey(sr.jobs[i]);
        if (leaderOf.emplace(keys[i], i).second)
            leaders.push_back(i);
    }

    // Serve leaders from the cache where possible; simulate the rest
    // on the pool. Each worker writes only its own results slot, so
    // assembly is deterministic regardless of completion order.
    std::vector<std::size_t> toRun;
    for (std::size_t i : leaders) {
        CachedResult hit;
        if (cache.lookup(keys[i], hit)) {
            sr.results[i] = std::move(hit.run);
            sr.verdicts[i] = std::move(hit.verdict);
        } else {
            toRun.push_back(i);
        }
    }
    if (!toRun.empty()) {
        ThreadPool pool(opt.jobs);
        for (std::size_t i : toRun) {
            pool.submit([&sr, &cache, &keys, i] {
                CachedResult e = executeJob(sr.jobs[i]);
                cache.insert(keys[i], e);
                sr.results[i] = std::move(e.run);
                sr.verdicts[i] = std::move(e.verdict);
            });
        }
        pool.wait();
    }

    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const std::size_t leader = leaderOf[keys[i]];
        if (leader != i) {
            sr.results[i] = sr.results[leader];
            sr.verdicts[i] = sr.verdicts[leader];
        }
    }

    sr.uniqueRuns = toRun.size();
    sr.cacheHits = sr.jobs.size() - sr.uniqueRuns;
    sr.diskHits = cache.stats().diskHits - before.diskHits;
    const TraceCacheStats traceAfter = traceCacheStats();
    sr.traceHits = traceAfter.hits - traceBefore.hits;
    sr.traceMisses = traceAfter.misses - traceBefore.misses;
    sr.traceDiskHits = traceAfter.diskHits - traceBefore.diskHits;
    sr.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return sr;
}

SweepResult
runSweep(const SweepSpec &spec, const RunOptions &opt)
{
    return runJobs(spec.expand(), opt);
}

} // namespace asap
