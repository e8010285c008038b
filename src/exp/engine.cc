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

/** What a Crash or Permute job checks at its crash point. */
CrashCheck
crashCheck(const ExperimentJob &job)
{
    if (job.kind != JobKind::Permute)
        return {};
    PermuteSpec spec;
    spec.bound = job.permuteBound;
    spec.sampleSeed = job.permuteSeed;
    spec.fault = job.permuteFault;
    spec.onlyState = job.permuteState;
    spec.engine = job.permuteEngine;
    spec.threads = job.permuteThreads;
    return spec;
}

/** Key of the crash point a Crash or Permute job checks: the job
 *  re-kinded as Crash keys the simulation without the permute knobs. */
std::string
crashPointKey(const ExperimentJob &job)
{
    ExperimentJob point = job;
    point.kind = JobKind::Crash;
    return jobKey(point);
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
    // One task per Run leader and one per crash point: the Crash and
    // Permute leaders checking one point share its simulation.
    std::vector<std::vector<std::size_t>> tasks;
    std::unordered_map<std::string, std::size_t> taskOfPoint;
    for (std::size_t i : toRun) {
        if (sr.jobs[i].kind == JobKind::Run) {
            tasks.push_back({i});
            continue;
        }
        const auto [it, fresh] =
            taskOfPoint.emplace(crashPointKey(sr.jobs[i]), tasks.size());
        if (fresh)
            tasks.emplace_back();
        tasks[it->second].push_back(i);
    }
    auto store = [&sr, &cache, &keys](std::size_t i, CachedResult e) {
        cache.insert(keys[i], e);
        sr.results[i] = std::move(e.run);
        sr.verdicts[i] = std::move(e.verdict);
    };
    if (!toRun.empty()) {
        ThreadPool pool(opt.jobs);
        for (const std::vector<std::size_t> &task : tasks) {
            pool.submit([&sr, &store, &task] {
                const ExperimentJob &job = sr.jobs[task.front()];
                if (job.kind == JobKind::Run) {
                    store(task.front(),
                          {JobKind::Run,
                           runExperiment(job.workload, job.cfg,
                                         job.params),
                           {}});
                    return;
                }
                std::vector<CrashCheck> checks;
                for (std::size_t i : task)
                    checks.push_back(crashCheck(sr.jobs[i]));
                std::vector<CrashRunResult> out =
                    runCrashPoint(job.workload, job.cfg, job.params,
                                  job.crashTick, checks);
                for (std::size_t k = 0; k < task.size(); ++k) {
                    store(task[k], {sr.jobs[task[k]].kind,
                                    std::move(out[k].run),
                                    std::move(out[k].verdict)});
                }
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
