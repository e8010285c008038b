#include "dist/manifest.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/config.hh"
#include "sim/log.hh"

namespace asap
{

namespace
{

/** Bump when the manifest wire format changes incompatibly.
 *  v2: job lines carry the media profile (between workload and
 *  model), so merged media sweeps reproduce their media columns. */
// v3 added the four permute columns to every job line (older readers
// reject v3 manifests cleanly; manifests are transient per-sweep
// artifacts, so there is no legacy-data concern).
// v4: the per-MC media list follows the media profile, so merged
// heterogeneous-media sweeps keep their media columns.
constexpr int kManifestVersion = 4;

} // namespace

std::string
toString(ShardJobStatus status)
{
    switch (status) {
      case ShardJobStatus::Done: return "done";
      case ShardJobStatus::Claimed: return "claimed";
      case ShardJobStatus::Cached: return "cached";
      case ShardJobStatus::Leased: return "leased";
      case ShardJobStatus::Other: return "other";
      case ShardJobStatus::Dup: return "dup";
    }
    return "?";
}

bool
parseShardJobStatus(const std::string &text, ShardJobStatus &out)
{
    if (text == "done") out = ShardJobStatus::Done;
    else if (text == "claimed") out = ShardJobStatus::Claimed;
    else if (text == "cached") out = ShardJobStatus::Cached;
    else if (text == "leased") out = ShardJobStatus::Leased;
    else if (text == "other") out = ShardJobStatus::Other;
    else if (text == "dup") out = ShardJobStatus::Dup;
    else return false;
    return true;
}

std::string
serializeManifest(const ShardManifest &m)
{
    std::ostringstream os;
    os << "manifest " << kManifestVersion << '\n'
       << "shard " << m.shard.index << ' ' << m.shard.count << '\n';
    // Salt is rest-of-line so any user string round-trips; a lone '-'
    // marks the (common) empty salt.
    os << "salt " << (m.shard.salt.empty() ? "-" : m.shard.salt)
       << '\n'
       << "sweep " << m.sweep << '\n'
       << "jobs " << m.jobs.size() << '\n'
       << "owned " << m.owned << '\n'
       << "simulated " << m.simulated << '\n'
       << "claimed " << m.claimed << '\n'
       << "cachedHits " << m.cachedHits << '\n'
       << "leasedSkipped " << m.leasedSkipped << '\n'
       << "otherSkipped " << m.otherSkipped << '\n'
       << "diskHits " << m.diskHits << '\n'
       << "traceHits " << m.traceHits << '\n'
       << "wallSeconds " << m.wallSeconds << '\n';
    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        const ManifestJob &j = m.jobs[i];
        os << "job " << i << ' ' << j.key << ' ' << toString(j.kind)
           << ' ' << j.workload << ' ' << j.media << ' '
           << (j.mediaPerMc.empty() ? "-" : j.mediaPerMc) << ' '
           << toString(j.model) << ' ' << toString(j.pm) << ' '
           << j.cores << ' ' << j.seed << ' ' << j.ops << ' '
           << j.crashTick << ' ' << j.permuteBound << ' '
           << j.permuteSeed << ' '
           << (j.permuteFault.empty() ? "-" : j.permuteFault) << ' '
           << (j.permuteState.empty() ? "-" : j.permuteState) << ' '
           << toString(j.status) << '\n';
    }
    os << "end 1\n";
    return os.str();
}

bool
deserializeManifest(const std::string &text, ShardManifest &out,
                    std::string *why)
{
    const auto reject = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    std::istringstream is(text);
    std::string field;
    ShardManifest m;
    std::size_t jobCount = 0;
    bool complete = false;
    while (is >> field) {
        if (field == "manifest") {
            int version = 0;
            is >> version;
            if (version != kManifestVersion) {
                return reject("unsupported manifest version " +
                              std::to_string(version));
            }
        }
        else if (field == "shard")
            is >> m.shard.index >> m.shard.count;
        else if (field == "salt") {
            is >> std::ws;
            std::getline(is, m.shard.salt);
            if (m.shard.salt == "-")
                m.shard.salt.clear();
        }
        else if (field == "sweep") is >> m.sweep;
        else if (field == "jobs") is >> jobCount;
        else if (field == "owned") is >> m.owned;
        else if (field == "simulated") is >> m.simulated;
        else if (field == "claimed") is >> m.claimed;
        else if (field == "cachedHits") is >> m.cachedHits;
        else if (field == "leasedSkipped") is >> m.leasedSkipped;
        else if (field == "otherSkipped") is >> m.otherSkipped;
        else if (field == "diskHits") is >> m.diskHits;
        else if (field == "traceHits") is >> m.traceHits;
        else if (field == "wallSeconds") is >> m.wallSeconds;
        else if (field == "job") {
            std::size_t idx = 0;
            std::string kind, model, pm, status;
            ManifestJob j;
            is >> idx >> j.key >> kind >> j.workload >> j.media >>
                j.mediaPerMc >> model >> pm >> j.cores >> j.seed >>
                j.ops >> j.crashTick >> j.permuteBound >> j.permuteSeed >>
                j.permuteFault >> j.permuteState >> status;
            if (!is)
                return reject("malformed job line");
            if (idx != m.jobs.size())
                return reject("job lines out of order");
            if (j.mediaPerMc == "-")
                j.mediaPerMc.clear();
            if (j.permuteFault == "-")
                j.permuteFault.clear();
            if (j.permuteState == "-")
                j.permuteState.clear();
            if (kind == "run") j.kind = JobKind::Run;
            else if (kind == "crash") j.kind = JobKind::Crash;
            else if (kind == "permute") j.kind = JobKind::Permute;
            else return reject("unknown job kind '" + kind + "'");
            if (!tryParseModelKind(model, j.model))
                return reject("unknown model '" + model + "'");
            if (!tryParsePersistencyModel(pm, j.pm)) {
                return reject("unknown persistency model '" + pm +
                              "'");
            }
            if (!parseShardJobStatus(status, j.status))
                return reject("unknown job status '" + status + "'");
            m.jobs.push_back(std::move(j));
        }
        else if (field == "end") {
            complete = true;
            break;
        } else {
            return reject("unknown field '" + field + "'");
        }
        if (!is)
            return reject("malformed value for field '" + field + "'");
    }
    if (!complete)
        return reject("truncated manifest (no end marker)");
    if (m.jobs.size() != jobCount)
        return reject("job count mismatch (header says " +
                      std::to_string(jobCount) + ", found " +
                      std::to_string(m.jobs.size()) + ")");
    if (m.shard.count == 0 || m.shard.index >= m.shard.count)
        return reject("bad shard spec " + toString(m.shard));
    // The sweep id is what keeps shards of different sweeps apart; a
    // manifest whose sweep line was lost (e.g. swallowed by a damaged
    // salt line) cannot be merged safely.
    if (m.sweep.empty())
        return reject("missing sweep id");
    out = std::move(m);
    return true;
}

bool
writeManifest(const std::string &path, const ShardManifest &m)
{
    const std::string text = serializeManifest(m);
    std::ostringstream tmpName;
    tmpName << path << ".tmp." << std::this_thread::get_id();
    const std::string tmp = tmpName.str();
    std::FILE *out = std::fopen(tmp.c_str(), "w");
    if (!out) {
        warn("cannot write shard manifest to ", path);
        return false;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
        std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
    std::fclose(out);
    std::error_code ec;
    if (!wrote) {
        std::filesystem::remove(tmp, ec);
        warn("cannot write shard manifest to ", path);
        return false;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        warn("cannot move shard manifest into place at ", path);
        return false;
    }
    return true;
}

bool
loadManifest(const std::string &path, ShardManifest &out)
{
    std::ifstream in(path);
    if (!in) {
        warn("cannot read shard manifest ", path);
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string why;
    if (!deserializeManifest(text.str(), out, &why)) {
        warn("rejecting shard manifest ", path, ": ", why);
        return false;
    }
    out.path = path;
    return true;
}

std::string
manifestPath(const std::string &dir, const std::string &sweep,
             const ShardSpec &shard)
{
    std::ostringstream os;
    os << dir << "/sweep-" << sweep << "-shard" << shard.index << "of"
       << shard.count << ".manifest";
    return os.str();
}

ExperimentJob
toExperimentJob(const ManifestJob &mj)
{
    // Only the emit/repro-facing fields are recorded; the remaining
    // SimConfig knobs stay at their defaults. The recorded key — not
    // a re-hash of this partial job — is what merge looks up, so a
    // bench's non-default knobs are honoured even though they are not
    // reproduced here.
    ExperimentJob job;
    job.workload = mj.workload;
    job.cfg.mediaProfile = mj.media;
    job.cfg.mediaPerMc = mj.mediaPerMc;
    job.cfg.model = mj.model;
    job.cfg.persistency = mj.pm;
    job.cfg.numCores = mj.cores;
    job.cfg.seed = mj.seed;
    job.params.opsPerThread = mj.ops;
    job.params.seed = mj.seed;
    job.kind = mj.kind;
    job.crashTick = mj.crashTick;
    job.permuteBound = mj.permuteBound;
    job.permuteSeed = mj.permuteSeed;
    job.permuteFault = mj.permuteFault;
    job.permuteState = mj.permuteState;
    return job;
}

ManifestJob
toManifestJob(const ExperimentJob &job, const std::string &key)
{
    ManifestJob mj;
    mj.key = key;
    mj.kind = job.kind;
    mj.workload = job.workload;
    mj.media = job.cfg.mediaProfile;
    mj.mediaPerMc = job.cfg.mediaPerMc;
    mj.model = job.cfg.model;
    mj.pm = job.cfg.persistency;
    mj.cores = job.cfg.numCores;
    mj.seed = job.params.seed;
    mj.ops = job.params.opsPerThread;
    mj.crashTick = job.crashTick;
    mj.permuteBound = job.permuteBound;
    mj.permuteSeed = job.permuteSeed;
    mj.permuteFault = job.permuteFault;
    mj.permuteState = job.permuteState;
    return mj;
}

} // namespace asap
