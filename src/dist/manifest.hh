/**
 * @file
 * Per-shard manifest artifacts.
 *
 * A manifest is what a shard leaves behind besides cache entries: the
 * full job list of the sweep (so the merge driver needs no bench
 * binary), what this shard did with each job, and its execution
 * counters. Manifests are plain `field value` text like cache
 * entries, written temp-then-rename, and carry the sweep identity so
 * shards of different sweeps can never be merged by accident.
 */

#ifndef ASAP_DIST_MANIFEST_HH
#define ASAP_DIST_MANIFEST_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/shard.hh"
#include "exp/sweep.hh"

namespace asap
{

/** What a shard did with one job of the sweep. */
enum class ShardJobStatus
{
    Done,    //!< owned by this shard and simulated by it
    Claimed, //!< another shard's job, simulated here via lease claim
    Cached,  //!< result already in the shared cache; nothing to do
    Leased,  //!< a live shard holds its lease; left to that shard
    Other,   //!< another shard's job, not claimed (claim mode off)
    Dup,     //!< duplicate of an earlier job (follows its leader)
};

/** Printable status ("done", "claimed", ...). */
std::string toString(ShardJobStatus status);

/** Parse toString(ShardJobStatus) output. @return false if unknown */
bool parseShardJobStatus(const std::string &text, ShardJobStatus &out);

/** One sweep job as recorded in a manifest: enough to rebuild the
 *  emit-facing part of the ExperimentJob and its repro line, plus the
 *  authoritative cache key. */
struct ManifestJob
{
    std::string key;     //!< result-cache key (authoritative)
    JobKind kind = JobKind::Run;
    std::string workload;
    std::string media = kDefaultMediaProfile; //!< media profile
    std::string mediaPerMc; //!< per-MC profile list; empty = uniform
    ModelKind model = ModelKind::Baseline;
    PersistencyModel pm = PersistencyModel::Release;
    unsigned cores = 0;
    std::uint64_t seed = 0; //!< params/config seed
    unsigned ops = 0;       //!< params.opsPerThread
    Tick crashTick = 0;     //!< Crash/Permute jobs only
    std::uint64_t permuteBound = 4096; //!< Permute jobs only
    std::uint64_t permuteSeed = 1;     //!< Permute jobs only
    std::string permuteFault;          //!< Permute jobs only
    std::string permuteState;          //!< Permute jobs only
    ShardJobStatus status = ShardJobStatus::Other;
};

/** A shard's account of one sweep execution. */
struct ShardManifest
{
    ShardSpec shard;
    std::string sweep;  //!< sweepId() of the job list
    std::vector<ManifestJob> jobs; //!< every sweep job, in order

    std::size_t owned = 0;        //!< leader jobs assigned to this shard
    std::size_t simulated = 0;    //!< simulations this shard executed
    std::size_t claimed = 0;      //!< simulated on another shard's behalf
    std::size_t cachedHits = 0;   //!< leaders served by the shared cache
    std::size_t leasedSkipped = 0; //!< left to a live lease holder
    std::size_t otherSkipped = 0;  //!< left to their owning shard
    std::uint64_t diskHits = 0;   //!< cache disk-tier hits while running
    std::uint64_t traceHits = 0;  //!< memoised-trace reuses
    double wallSeconds = 0.0;

    /** Where writeManifest()/the executor stored it (not serialized). */
    std::string path;
};

/** Render @p m as canonical manifest text. */
std::string serializeManifest(const ShardManifest &m);

/**
 * Parse serializeManifest() output.
 * @param why when non-null, receives the rejection reason on failure
 * @return false if truncated, malformed, or a future version
 */
bool deserializeManifest(const std::string &text, ShardManifest &out,
                         std::string *why = nullptr);

/** Write @p m to @p path (temp + fsync + atomic rename).
 *  @return false if the file cannot be written */
bool writeManifest(const std::string &path, const ShardManifest &m);

/** Load a manifest from @p path (warns and returns false on reject). */
bool loadManifest(const std::string &path, ShardManifest &out);

/** Canonical manifest location for one shard of one sweep:
 *  `<dir>/sweep-<sweep>-shard<i>of<n>.manifest`. A re-run of the same
 *  shard overwrites its previous manifest — the newer one subsumes
 *  it. */
std::string manifestPath(const std::string &dir,
                         const std::string &sweep,
                         const ShardSpec &shard);

/** Rebuild the emit-facing ExperimentJob a manifest row describes. */
ExperimentJob toExperimentJob(const ManifestJob &mj);

/** Build the manifest row (sans status) for @p job. */
ManifestJob toManifestJob(const ExperimentJob &job,
                          const std::string &key);

} // namespace asap

#endif // ASAP_DIST_MANIFEST_HH
