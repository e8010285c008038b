/**
 * @file
 * Tests for the distributed-execution subsystem (src/dist/): shard
 * assignment, the cooperative lease protocol (including emergency
 * release on fatal signals), manifest round-trips, and the end-to-end
 * guarantee the subsystem exists for — N shards over a shared cache
 * merge byte-identically to a single-host run, with every simulation
 * executed exactly once cluster-wide.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "dist/executor.hh"
#include "dist/lease.hh"
#include "dist/manifest.hh"
#include "dist/merge.hh"
#include "dist/shard.hh"
#include "exp/cache.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"

namespace asap
{
namespace
{

namespace fs = std::filesystem;

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.opsPerThread = 20;
    p.seed = 7;
    return p;
}

/** A small cross-product sweep with an intra-sweep duplicate. */
std::vector<ExperimentJob>
sampleJobs()
{
    SweepSpec spec;
    spec.workloads = {"queue", "skiplist"};
    spec.models = {{ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {2};
    spec.params = tinyParams();
    std::vector<ExperimentJob> jobs = spec.expand();
    // One of each verdict-bearing kind, so manifest round-trips cover
    // the crash tick and the permute knobs.
    ExperimentJob crash = jobs.front();
    crash.kind = JobKind::Crash;
    crash.crashTick = 1234;
    jobs.push_back(crash);
    ExperimentJob perm = jobs.front();
    perm.kind = JobKind::Permute;
    perm.crashTick = 1234;
    perm.permuteBound = 256;
    perm.permuteSeed = 3;
    perm.permuteFault = "drop-undo";
    perm.permuteState = "1f";
    jobs.push_back(perm);
    // A streamed serve job on heterogeneous per-MC media, so merges
    // must reproduce the media and serve columns it switches on.
    ExperimentJob serve = jobs.front();
    serve.workload = "serve:kv-zipf";
    serve.cfg.numMCs = 2;
    serve.cfg.mediaPerMc = "paper-table2,cxl-dram";
    jobs.push_back(serve);
    jobs.push_back(jobs.front()); // duplicate: follows its leader
    return jobs;
}

/** Fresh scratch directory under the system temp dir. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Back-date a file's mtime by @p seconds (simulates a dead owner). */
void
ageFile(const std::string &path, double seconds)
{
    fs::last_write_time(
        path, fs::file_time_type::clock::now() -
                  std::chrono::duration_cast<fs::file_time_type::duration>(
                      std::chrono::duration<double>(seconds)));
}

TEST(Shard, ParseAndFormatRoundTrip)
{
    const ShardSpec spec = parseShardSpec("2/5");
    EXPECT_EQ(spec.index, 2u);
    EXPECT_EQ(spec.count, 5u);
    EXPECT_EQ(toString(spec), "2/5");
    EXPECT_DEATH(parseShardSpec("3/3"), "bad shard spec");
    EXPECT_DEATH(parseShardSpec("1of2"), "bad shard spec");
    EXPECT_DEATH(parseShardSpec("/4"), "bad shard spec");
    EXPECT_DEATH(parseShardSpec("1/"), "bad shard spec");
}

TEST(Shard, PartitionIsDisjointAndCovering)
{
    const std::vector<ExperimentJob> jobs = sampleJobs();
    std::set<std::string> leaderKeys;
    for (const ExperimentJob &job : jobs)
        leaderKeys.insert(jobKey(job));

    for (unsigned n : {1u, 2u, 3u, 8u}) {
        std::size_t assigned = 0;
        for (const std::string &key : leaderKeys) {
            unsigned owners = 0;
            for (unsigned i = 0; i < n; ++i) {
                ShardSpec spec;
                spec.index = i;
                spec.count = n;
                const unsigned s = shardOf(key, spec);
                EXPECT_LT(s, n);
                // Every spec with the same (count, salt) must agree,
                // whatever its own index is.
                if (s == i)
                    ++owners;
            }
            EXPECT_EQ(owners, 1u) << "key " << key << " n " << n;
            ++assigned;
        }
        EXPECT_EQ(assigned, leaderKeys.size());
    }
}

TEST(Shard, SaltRedealsThePartition)
{
    ShardSpec plain;
    plain.count = 4;
    ShardSpec salted = plain;
    salted.salt = "redeal";
    bool moved = false;
    for (int i = 0; i < 64; ++i) {
        const std::string key = "exp-" + std::to_string(i);
        moved = moved || shardOf(key, plain) != shardOf(key, salted);
    }
    EXPECT_TRUE(moved);
}

TEST(Shard, SweepIdDependsOnJobListAndOrder)
{
    std::vector<ExperimentJob> jobs = sampleJobs();
    const std::string id = sweepId(jobs);
    EXPECT_EQ(id.size(), 16u);
    EXPECT_EQ(sweepId(jobs), id); // deterministic

    std::vector<ExperimentJob> swapped = jobs;
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(sweepId(swapped), id);

    std::vector<ExperimentJob> shorter(jobs.begin(), jobs.end() - 1);
    EXPECT_NE(sweepId(shorter), id);
}

TEST(Lease, AcquireIsExclusiveUntilReleased)
{
    LeaseConfig cfg;
    cfg.dir = scratchDir("asap_lease_excl");
    LeaseManager a(cfg), b(cfg);

    ASSERT_EQ(a.tryAcquire("exp-1"), LeaseManager::Acquire::Acquired);
    EXPECT_EQ(a.heldCount(), 1u);
    EXPECT_EQ(b.tryAcquire("exp-1"), LeaseManager::Acquire::Busy);

    a.release("exp-1");
    EXPECT_EQ(a.heldCount(), 0u);
    EXPECT_EQ(b.tryAcquire("exp-1"), LeaseManager::Acquire::Acquired);
    b.release("exp-1");
}

TEST(Lease, StaleLeaseOfDeadOwnerIsStolen)
{
    LeaseConfig cfg;
    cfg.dir = scratchDir("asap_lease_stale");
    cfg.ttlSeconds = 30.0;
    LeaseManager a(cfg);
    ASSERT_EQ(a.tryAcquire("exp-2"), LeaseManager::Acquire::Acquired);

    // Fresh: a second manager must not steal it.
    LeaseManager b(cfg);
    EXPECT_EQ(b.tryAcquire("exp-2"), LeaseManager::Acquire::Busy);

    // Simulate the owner dying: its heartbeat stops, the mtime ages
    // past the TTL, and the reclaim path takes over.
    ageFile(a.leasePath("exp-2"), cfg.ttlSeconds + 5.0);
    EXPECT_EQ(b.tryAcquire("exp-2"), LeaseManager::Acquire::Acquired);
    b.release("exp-2");
}

TEST(Lease, HeartbeatRefreshesHeldLeases)
{
    LeaseConfig cfg;
    cfg.dir = scratchDir("asap_lease_beat");
    cfg.ttlSeconds = 60.0;
    cfg.heartbeatSeconds = 0.05;
    LeaseManager a(cfg);
    ASSERT_EQ(a.tryAcquire("exp-3"), LeaseManager::Acquire::Acquired);

    // Age the file, then wait for at least one heartbeat to pull the
    // mtime back to the present.
    const std::string path = a.leasePath("exp-3");
    ageFile(path, 30.0);
    const auto aged = fs::last_write_time(path);
    for (int i = 0; i < 100 && fs::last_write_time(path) <= aged; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(fs::last_write_time(path), aged);
    EXPECT_TRUE(a.isFresh(path));
}

TEST(Lease, EmergencyReleaseUnlinksHeldLeases)
{
    const std::string dir = scratchDir("asap_lease_emergency");
    LeaseConfig lc;
    lc.dir = dir;
    LeaseManager lm(lc);

    ASSERT_EQ(lm.tryAcquire("job-a"), LeaseManager::Acquire::Acquired);
    ASSERT_EQ(lm.tryAcquire("job-b"), LeaseManager::Acquire::Acquired);
    EXPECT_TRUE(fs::exists(lm.leasePath("job-a")));
    EXPECT_GE(LeaseManager::emergencyRegisteredCount(), 2u);

    // Normal release must disarm its slot (no double-release later).
    lm.release("job-b");
    EXPECT_FALSE(fs::exists(lm.leasePath("job-b")));

    EXPECT_GE(LeaseManager::emergencyReleaseAll(), 1u);
    EXPECT_FALSE(fs::exists(lm.leasePath("job-a")));
    EXPECT_EQ(LeaseManager::emergencyRegisteredCount(), 0u);
}

TEST(LeaseDeathTest, SignalHandlerReleasesLeasesBeforeDying)
{
    const std::string dir = scratchDir("asap_lease_signal");
    const std::string leaseFile = dir + "/job-x.lease";

    EXPECT_EXIT(
        {
            installLeaseSignalHandler();
            LeaseConfig lc;
            lc.dir = dir;
            LeaseManager lm(lc);
            if (lm.tryAcquire("job-x") !=
                LeaseManager::Acquire::Acquired)
                ::_exit(3);
            ::raise(SIGTERM); // handler unlinks, then re-raises
            ::_exit(4);       // unreachable if the handler re-raised
        },
        ::testing::KilledBySignal(SIGTERM), "");

    // The interrupted process must not have stranded its lease for a
    // TTL: other shards can claim the job immediately.
    EXPECT_FALSE(fs::exists(leaseFile));
}

TEST(Manifest, SerializationRoundTrips)
{
    ShardManifest m;
    m.shard.index = 1;
    m.shard.count = 3;
    m.shard.salt = "salt with spaces";
    m.sweep = "00ff00ff00ff00ff";
    m.owned = 4;
    m.simulated = 3;
    m.claimed = 1;
    m.cachedHits = 2;
    m.leasedSkipped = 1;
    m.otherSkipped = 5;
    m.diskHits = 7;
    m.traceHits = 9;
    m.wallSeconds = 1.25;

    const std::vector<ExperimentJob> jobs = sampleJobs();
    for (const ExperimentJob &job : jobs)
        m.jobs.push_back(toManifestJob(job, jobKey(job)));
    m.jobs[0].status = ShardJobStatus::Done;
    m.jobs[1].status = ShardJobStatus::Claimed;
    m.jobs[2].status = ShardJobStatus::Cached;
    m.jobs.back().status = ShardJobStatus::Dup;

    ShardManifest out;
    std::string why;
    ASSERT_TRUE(deserializeManifest(serializeManifest(m), out, &why))
        << why;
    EXPECT_EQ(out.shard.index, m.shard.index);
    EXPECT_EQ(out.shard.count, m.shard.count);
    EXPECT_EQ(out.shard.salt, m.shard.salt);
    EXPECT_EQ(out.sweep, m.sweep);
    EXPECT_EQ(out.owned, m.owned);
    EXPECT_EQ(out.simulated, m.simulated);
    EXPECT_EQ(out.claimed, m.claimed);
    EXPECT_EQ(out.cachedHits, m.cachedHits);
    EXPECT_EQ(out.leasedSkipped, m.leasedSkipped);
    EXPECT_EQ(out.otherSkipped, m.otherSkipped);
    EXPECT_EQ(out.diskHits, m.diskHits);
    EXPECT_EQ(out.traceHits, m.traceHits);
    EXPECT_DOUBLE_EQ(out.wallSeconds, m.wallSeconds);
    ASSERT_EQ(out.jobs.size(), m.jobs.size());
    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        EXPECT_EQ(out.jobs[i].key, m.jobs[i].key);
        EXPECT_EQ(out.jobs[i].kind, m.jobs[i].kind);
        EXPECT_EQ(out.jobs[i].workload, m.jobs[i].workload);
        EXPECT_EQ(out.jobs[i].media, m.jobs[i].media);
        EXPECT_EQ(out.jobs[i].mediaPerMc, m.jobs[i].mediaPerMc);
        EXPECT_EQ(out.jobs[i].model, m.jobs[i].model);
        EXPECT_EQ(out.jobs[i].pm, m.jobs[i].pm);
        EXPECT_EQ(out.jobs[i].cores, m.jobs[i].cores);
        EXPECT_EQ(out.jobs[i].seed, m.jobs[i].seed);
        EXPECT_EQ(out.jobs[i].ops, m.jobs[i].ops);
        EXPECT_EQ(out.jobs[i].crashTick, m.jobs[i].crashTick);
        EXPECT_EQ(out.jobs[i].permuteBound, m.jobs[i].permuteBound);
        EXPECT_EQ(out.jobs[i].permuteSeed, m.jobs[i].permuteSeed);
        EXPECT_EQ(out.jobs[i].permuteFault, m.jobs[i].permuteFault);
        EXPECT_EQ(out.jobs[i].permuteState, m.jobs[i].permuteState);
        EXPECT_EQ(out.jobs[i].status, m.jobs[i].status);
    }
}

TEST(Manifest, RejectsDamagedText)
{
    ShardManifest m;
    m.shard.count = 1;
    m.sweep = "feed";
    const std::string good = serializeManifest(m);

    ShardManifest out;
    std::string why;
    EXPECT_FALSE(deserializeManifest(
        good.substr(0, good.size() - 7), out, &why));
    EXPECT_NE(why.find("truncated"), std::string::npos);

    std::string wrongVersion = good;
    wrongVersion.replace(wrongVersion.find("manifest 4"), 10,
                         "manifest 9");
    EXPECT_FALSE(deserializeManifest(wrongVersion, out, &why));
    EXPECT_NE(why.find("version"), std::string::npos);

    EXPECT_FALSE(deserializeManifest("manifest 4\nbogus 3\nend 1\n",
                                     out, &why));
    EXPECT_NE(why.find("unknown field"), std::string::npos);
}

TEST(Dist, ShardedRunsMergeByteIdenticalToSingleHost)
{
    const std::vector<ExperimentJob> jobs = sampleJobs();

    // Reference: one host, no disk tier involved.
    ResultCache local;
    RunOptions ro;
    ro.cache = &local;
    const SweepResult single = runJobs(jobs, ro);
    std::ostringstream want;
    emitCsv(want, single);

    const std::string dir = scratchDir("asap_dist_merge");
    std::vector<ShardManifest> manifests;
    std::size_t leaders = 0;
    {
        std::set<std::string> keys;
        for (const ExperimentJob &job : jobs)
            keys.insert(jobKey(job));
        leaders = keys.size();
    }
    std::size_t simulatedTotal = 0;
    for (unsigned i = 0; i < 3; ++i) {
        // A fresh ResultCache per shard approximates a separate
        // process: only the disk tier is shared.
        ResultCache shardCache(dir);
        DistOptions opt;
        opt.shard.index = i;
        opt.shard.count = 3;
        opt.cache = &shardCache;
        const ShardManifest m = runJobsSharded(jobs, opt);
        EXPECT_EQ(m.jobs.size(), jobs.size());
        simulatedTotal += m.simulated;
        manifests.push_back(m);
    }
    EXPECT_EQ(simulatedTotal, leaders);

    // The manifests written to disk must round-trip to what the
    // executor returned.
    ShardManifest reloaded;
    ASSERT_TRUE(loadManifest(manifests[0].path, reloaded));
    EXPECT_EQ(reloaded.sweep, manifests[0].sweep);
    EXPECT_EQ(reloaded.jobs.size(), manifests[0].jobs.size());

    ResultCache mergeCache(dir);
    const MergeReport report = mergeShards(manifests, mergeCache);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.duplicateSims, 0u);
    EXPECT_EQ(report.simulatedTotal, leaders);
    EXPECT_EQ(report.shardsSeen.size(), 3u);

    std::ostringstream got;
    emitCsv(got, report.result);
    EXPECT_EQ(got.str(), want.str());
}

TEST(Dist, ClaimRecoversJobsOfACrashedShard)
{
    const std::vector<ExperimentJob> jobs = sampleJobs();
    const std::string dir = scratchDir("asap_dist_claim");

    // Shard 0 of 2 "crashes" before doing anything: it leaves only a
    // stale lease on one of its jobs (as a SIGKILLed process would —
    // no manifest, no cache entries, heartbeat stopped).
    ShardSpec crashed;
    crashed.index = 0;
    crashed.count = 2;
    std::string crashedKey;
    for (const ExperimentJob &job : jobs) {
        const std::string key = jobKey(job);
        if (shardOf(key, crashed) == crashed.index) {
            crashedKey = key;
            break;
        }
    }
    ASSERT_FALSE(crashedKey.empty()) << "partition left shard 0 empty";
    {
        LeaseConfig lc;
        lc.dir = dir + "/leases";
        LeaseManager dead(lc);
        ASSERT_EQ(dead.tryAcquire(crashedKey),
                  LeaseManager::Acquire::Acquired);
        // Pull the lease file out from under the manager so its
        // destructor cannot release it (a SIGKILL wouldn't).
        const std::string path = dead.leasePath(crashedKey);
        const std::string orphan = path + ".orphan";
        fs::rename(path, orphan);
        dead.release(crashedKey);
        fs::rename(orphan, path);
        ageFile(path, 3600.0);
    }

    // The surviving shard re-runs with --claim and a TTL the stale
    // lease has long exceeded: it must pick up every shard-0 job.
    ResultCache survivorCache(dir);
    DistOptions opt;
    opt.shard.index = 1;
    opt.shard.count = 2;
    opt.claim = true;
    opt.cache = &survivorCache;
    opt.leaseTtlSeconds = 60.0;
    const ShardManifest m = runJobsSharded(jobs, opt);

    std::size_t leaders = 0;
    {
        std::set<std::string> keys;
        for (const ExperimentJob &job : jobs)
            keys.insert(jobKey(job));
        leaders = keys.size();
    }
    EXPECT_EQ(m.simulated, leaders);
    EXPECT_EQ(m.claimed, leaders - m.owned);
    EXPECT_EQ(m.leasedSkipped, 0u);

    // One manifest suffices for a complete, duplicate-free merge.
    ResultCache mergeCache(dir);
    const MergeReport report = mergeShards({m}, mergeCache);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.duplicateSims, 0u);
    EXPECT_EQ(report.simulatedTotal, leaders);
}

TEST(Dist, FreshLeaseIsRespectedEvenWithClaim)
{
    const std::vector<ExperimentJob> jobs = sampleJobs();
    const std::string dir = scratchDir("asap_dist_leased");

    // A live shard holds one of shard 0's jobs.
    LeaseConfig lc;
    lc.dir = dir + "/leases";
    LeaseManager holder(lc);
    ShardSpec spec;
    spec.index = 0;
    spec.count = 1;
    const std::string heldKey = jobKey(jobs.front());
    ASSERT_EQ(holder.tryAcquire(heldKey),
              LeaseManager::Acquire::Acquired);

    ResultCache cache(dir);
    DistOptions opt;
    opt.shard = spec;
    opt.claim = true;
    opt.cache = &cache;
    const ShardManifest m = runJobsSharded(jobs, opt);
    EXPECT_EQ(m.leasedSkipped, 1u);

    // The held job is the merge's hole until the holder finishes.
    ResultCache mergeCache(dir);
    const MergeReport report = mergeShards({m}, mergeCache);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_FALSE(report.complete());
    for (std::size_t i : report.missing)
        EXPECT_EQ(jobKey(report.result.jobs[i]), heldKey);
    holder.release(heldKey);
}

TEST(Dist, EnsureJobsCompletesDespiteStaleLeases)
{
    const std::vector<ExperimentJob> jobs = sampleJobs();
    const std::string dir = scratchDir("asap_dist_ensure");

    // A dead process left a stale lease on the first job.
    {
        LeaseConfig lc;
        lc.dir = dir + "/leases";
        LeaseManager dead(lc);
        const std::string key = jobKey(jobs.front());
        ASSERT_EQ(dead.tryAcquire(key),
                  LeaseManager::Acquire::Acquired);
        const std::string path = dead.leasePath(key);
        fs::rename(path, path + ".orphan");
        dead.release(key);
        fs::rename(path + ".orphan", path);
        ageFile(path, 3600.0);
    }

    ResultCache cache(dir);
    DistOptions opt;
    opt.cache = &cache;
    opt.leaseTtlSeconds = 60.0;
    const SweepResult got = ensureJobs(jobs, opt);
    ASSERT_EQ(got.jobs.size(), jobs.size());
    EXPECT_EQ(got.uniqueRuns, 0u); // final assembly is all cache hits

    // Equivalent to a plain single-host run of the same list.
    ResultCache local;
    RunOptions ro;
    ro.cache = &local;
    const SweepResult want = runJobs(jobs, ro);
    std::ostringstream a, b;
    emitCsv(a, got);
    emitCsv(b, want);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Dist, ShardingRequiresADiskTier)
{
    const std::vector<ExperimentJob> jobs = sampleJobs();
    ResultCache memoryOnly;
    DistOptions opt;
    opt.cache = &memoryOnly;
    EXPECT_DEATH(runJobsSharded(jobs, opt), "ASAP_CACHE_DIR");
    EXPECT_DEATH(ensureJobs(jobs, opt), "ASAP_CACHE_DIR");
}

TEST(Merge, RefusesToMixSweeps)
{
    ShardManifest a, b;
    a.shard.count = 2;
    a.sweep = "aaaaaaaaaaaaaaaa";
    b.shard.index = 1;
    b.shard.count = 2;
    b.sweep = "bbbbbbbbbbbbbbbb";
    ResultCache cache;
    const MergeReport report = mergeShards({a, b}, cache);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.error.find("refusing to mix sweeps"),
              std::string::npos);
    EXPECT_TRUE(mergeShards({}, cache).error.find("no shard") !=
                std::string::npos);
}

} // namespace
} // namespace asap
