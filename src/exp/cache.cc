#include "exp/cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "sim/code_salt.hh"
#include "sim/log.hh"

namespace asap
{

namespace
{

/** Age beyond which an abandoned temp file is certainly garbage (no
 *  writer holds an insert open for minutes). */
constexpr double kStaleTmpSeconds = 15 * 60.0;

} // namespace

const char *
cacheCodeSalt()
{
    return kCodeSalt;
}

std::string
describeJob(const ExperimentJob &job)
{
    const SimConfig &c = job.cfg;
    const WorkloadParams &p = job.params;
    std::ostringstream os;
    os << "salt=" << kCodeSalt << '\n'
       << "workload=" << job.workload << '\n'
       // Every result-affecting SimConfig knob, in declaration
       // order. A knob missing here would alias configs that differ
       // only in that knob — keep in sync with sim/config.hh.
       << "numCores=" << c.numCores << '\n'
       << "numMCs=" << c.numMCs << '\n'
       << "model=" << toString(c.model) << '\n'
       << "persistency=" << toString(c.persistency) << '\n'
       << "l1Latency=" << c.l1Latency << '\n'
       << "l2Latency=" << c.l2Latency << '\n'
       << "llcLatency=" << c.llcLatency << '\n'
       << "cacheToCacheLatency=" << c.cacheToCacheLatency << '\n'
       << "l1Sets=" << c.l1Sets << " l1Ways=" << c.l1Ways << '\n'
       << "l2Sets=" << c.l2Sets << " l2Ways=" << c.l2Ways << '\n'
       << "llcSets=" << c.llcSets << " llcWays=" << c.llcWays << '\n'
       << "media=" << c.mediaProfile << '\n'
       << "mediaReadLatency=" << c.mediaReadLatency << '\n'
       << "mediaWriteLatency=" << c.mediaWriteLatency << '\n'
       << "mediaBanks=" << c.mediaBanks << '\n'
       << "mediaWriteGBps=" << c.mediaWriteGBps << '\n'
       << "dramLatency=" << c.dramLatency << '\n'
       << "pmReadLatency=" << c.pmReadLatency << '\n'
       << "pmWriteLatency=" << c.pmWriteLatency << '\n'
       << "wpqEntries=" << c.wpqEntries << '\n'
       << "wpqCombineWindow=" << c.wpqCombineWindow << '\n'
       << "nvmBanks=" << c.nvmBanks << '\n'
       << "interleaveBytes=" << c.interleaveBytes << '\n'
       << "xpBufferLines=" << c.xpBufferLines << '\n'
       << "xpBufferHitLatency=" << c.xpBufferHitLatency << '\n'
       << "pbEntries=" << c.pbEntries << '\n'
       << "etEntries=" << c.etEntries << '\n'
       << "rtEntries=" << c.rtEntries << '\n'
       << "pbFlushLatency=" << c.pbFlushLatency << '\n'
       << "pbMaxInflight=" << c.pbMaxInflight << '\n'
       << "clwbMaxInflight=" << c.clwbMaxInflight << '\n'
       << "mcMessageLatency=" << c.mcMessageLatency << '\n'
       << "interCoreLatency=" << c.interCoreLatency << '\n'
       << "hopsPollPeriod=" << c.hopsPollPeriod << '\n'
       << "hopsPollCost=" << c.hopsPollCost << '\n'
       << "eadrDfenceCost=" << c.eadrDfenceCost << '\n'
       << "seed=" << c.seed << '\n'
       << "maxRunTicks=" << c.maxRunTicks << '\n'
       << "opsPerThread=" << p.opsPerThread << '\n'
       << "keySpace=" << p.keySpace << '\n'
       << "valueBytes=" << p.valueBytes << '\n'
       << "updatePct=" << p.updatePct << '\n'
       << "paramSeed=" << p.seed << '\n';
    // Appended only when set so every homogeneous-media key (and the
    // disk caches written before heterogeneous media existed) stays
    // unchanged.
    if (!c.mediaPerMc.empty())
        os << "mediaPerMc=" << c.mediaPerMc << '\n';
    // Appended only for crash jobs so Run keys (and therefore every
    // disk cache written before crash jobs existed) stay unchanged.
    if (job.kind == JobKind::Crash) {
        os << "kind=" << toString(job.kind) << '\n'
           << "crashTick=" << job.crashTick << '\n';
    }
    // Permute jobs additionally key the enumeration knobs: a tighter
    // bound, another sampling seed, a fault hook or a single-state
    // repro all produce different verdicts and must not alias.
    if (job.kind == JobKind::Permute) {
        os << "kind=" << toString(job.kind) << '\n'
           << "crashTick=" << job.crashTick << '\n'
           << "permuteBound=" << job.permuteBound << '\n'
           << "permuteSeed=" << job.permuteSeed << '\n'
           << "permuteFault="
           << (job.permuteFault.empty() ? "-" : job.permuteFault) << '\n'
           << "permuteState="
           << (job.permuteState.empty() ? "-" : job.permuteState) << '\n';
    }
    return os.str();
}

std::string
jobKey(const ExperimentJob &job)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "exp-%016llx",
                  static_cast<unsigned long long>(
                      stableHash64(describeJob(job))));
    return buf;
}

namespace
{

void
appendResultFields(std::ostringstream &os, const RunResult &r)
{
    os << "workload " << r.workload << '\n'
       << "model " << toString(r.model) << '\n'
       << "persistency " << toString(r.persistency) << '\n'
       << "cores " << r.cores << '\n';
    for (const ResultField &f : kResultFields) {
        // The media label line precedes the media counters.
        // Whitespace-delimited format: an empty profile would leave
        // the value slot blank and desync the reader, so stand in "-".
        if (f.count == &RunResult::xpHits)
            os << "media " << (r.media.empty() ? "-" : r.media) << '\n';
        os << f.name << ' ';
        f.print(os, r);
        os << '\n';
    }
}

/** The kResultFields row named @p name, or null. */
const ResultField *
findResultField(const std::string &name)
{
    for (const ResultField &f : kResultFields) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

} // namespace

std::string
serializeEntry(const CachedResult &e)
{
    // Every disk entry leads with the writer's code salt. The salt is
    // also hashed into the key, so a well-behaved writer never creates
    // a mismatching file — the explicit field catches entries copied
    // between cache directories by hand and describeJob() edits that
    // forgot the salt bump, instead of silently trusting them.
    std::ostringstream os;
    os << "codeSalt " << kCodeSalt << '\n';
    if (e.kind == JobKind::Run) {
        appendResultFields(os, e.run);
        os << "end 1\n";
        return os.str();
    }
    os << "kind " << toString(e.kind) << '\n';
    appendResultFields(os, e.run);
    const CrashVerdict &v = e.verdict;
    os << "vConsistent " << (v.consistent ? 1 : 0) << '\n'
       << "vCrashTick " << v.crashTick << '\n'
       << "vActualTick " << v.actualTick << '\n'
       << "vStoresLogged " << v.storesLogged << '\n'
       << "vLinesSurvived " << v.linesSurvived << '\n'
       << "vUndoReplayed " << v.undoReplayed << '\n'
       << "vAdrDrainWrites " << v.adrDrainWrites << '\n';
    os << "vCommitted " << v.committedUpTo.size();
    for (std::uint64_t c : v.committedUpTo)
        os << ' ' << c;
    os << '\n';
    // Permuter coverage; all-zero for plain Crash entries, so they
    // are only written for Permute jobs (readers default them to 0).
    if (e.kind == JobKind::Permute) {
        os << "vStatesChecked " << v.statesChecked << '\n'
           << "vStatesReachable " << v.statesReachable << '\n'
           << "vDistinctStates " << v.distinctStates << '\n'
           << "vPermuteAtoms " << v.permuteAtoms << '\n'
           << "vTruncated " << (v.truncated ? 1 : 0) << '\n'
           << "vInconsistentStates " << v.inconsistentStates << '\n';
        if (!v.firstBadState.empty())
            os << "vFirstBadState " << v.firstBadState << '\n';
    }
    // The violation message may contain spaces: rest-of-line field,
    // written last before the end marker.
    if (!v.message.empty())
        os << "vMessage " << v.message << '\n';
    os << "end 1\n";
    return os.str();
}

bool
deserializeEntry(const std::string &text, CachedResult &out,
                 std::string *why)
{
    const auto reject = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    std::istringstream is(text);
    std::string field;
    CachedResult e;
    RunResult &r = e.run;
    CrashVerdict &v = e.verdict;
    bool complete = false;
    while (is >> field) {
        if (field == "codeSalt") {
            // Absent in pre-hardening entries: those were written
            // under the same key hash, so absence implies a match.
            std::string salt;
            is >> salt;
            if (salt != kCodeSalt) {
                return reject("code-salt mismatch (entry '" + salt +
                              "', running '" + kCodeSalt + "')");
            }
        }
        else if (field == "kind") {
            std::string k;
            is >> k;
            if (k == "run") e.kind = JobKind::Run;
            else if (k == "crash") e.kind = JobKind::Crash;
            else if (k == "permute") e.kind = JobKind::Permute;
            else return reject("unknown job kind '" + k + "'");
        }
        else if (field == "workload") is >> r.workload;
        else if (field == "model") {
            std::string m;
            is >> m;
            if (is && !tryParseModelKind(m, r.model))
                return reject("unknown model '" + m + "'");
        } else if (field == "persistency") {
            std::string m;
            is >> m;
            if (is && !tryParsePersistencyModel(m, r.persistency))
                return reject("unknown persistency model '" + m + "'");
        }
        else if (field == "cores") is >> r.cores;
        else if (field == "media") {
            is >> r.media;
            if (r.media == "-") r.media.clear();
        }
        else if (field == "vConsistent") {
            int b = 0;
            is >> b;
            v.consistent = b != 0;
        }
        else if (field == "vCrashTick") is >> v.crashTick;
        else if (field == "vActualTick") is >> v.actualTick;
        else if (field == "vStoresLogged") is >> v.storesLogged;
        else if (field == "vLinesSurvived") is >> v.linesSurvived;
        else if (field == "vUndoReplayed") is >> v.undoReplayed;
        else if (field == "vAdrDrainWrites") is >> v.adrDrainWrites;
        else if (field == "vCommitted") {
            std::size_t n = 0;
            is >> n;
            if (!is || n > 4096)
                return reject("malformed committed-frontier length");
            v.committedUpTo.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                is >> v.committedUpTo[i];
        }
        else if (field == "vStatesChecked") is >> v.statesChecked;
        else if (field == "vStatesReachable") is >> v.statesReachable;
        else if (field == "vDistinctStates") is >> v.distinctStates;
        else if (field == "vPermuteAtoms") is >> v.permuteAtoms;
        else if (field == "vTruncated") {
            int b = 0;
            is >> b;
            v.truncated = b != 0;
        }
        else if (field == "vInconsistentStates")
            is >> v.inconsistentStates;
        else if (field == "vFirstBadState") is >> v.firstBadState;
        else if (field == "vMessage") {
            is >> std::ws;
            std::getline(is, v.message);
        }
        else if (field == "end") {
            complete = true;
            break;
        } else if (const ResultField *f = findResultField(field)) {
            f->read(is, r);
        } else {
            // Written by newer code than this reader.
            return reject("unknown field '" + field + "'");
        }
        if (!is)
            return reject("malformed value for field '" + field + "'");
    }
    if (!complete)
        return reject("truncated entry (no end marker)");
    out = std::move(e);
    return true;
}

std::size_t
cleanStaleCacheTmp(const std::string &dir, double older_than_seconds)
{
    namespace fs = std::filesystem;
    std::size_t removed = 0;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    const auto age = std::chrono::duration_cast<
        fs::file_time_type::duration>(
        std::chrono::duration<double>(older_than_seconds));
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") == std::string::npos)
            continue;
        const auto written = fs::last_write_time(entry.path(), ec);
        if (ec || now - written < age)
            continue;
        if (fs::remove(entry.path(), ec) && !ec)
            ++removed;
    }
    return removed;
}

ResultCache::ResultCache(std::string disk_dir) : dir(std::move(disk_dir))
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            warn("cannot create cache dir ", dir, ": ", ec.message(),
                 "; disk tier disabled");
            dir.clear();
        }
    }
    if (!dir.empty()) {
        // Sweep up temp files from writers that died mid-insert (a
        // killed sweep, say). Recent ones may belong to a live
        // concurrent writer, so only old droppings go.
        const std::size_t n = cleanStaleCacheTmp(dir, kStaleTmpSeconds);
        if (n > 0)
            warn("removed ", n, " stale cache temp file(s) from ", dir);
    }
}

std::string
ResultCache::diskPath(const std::string &key) const
{
    return dir + "/" + key + ".result";
}

bool
ResultCache::lookup(const std::string &key, CachedResult &out)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = mem.find(key);
        if (it != mem.end()) {
            out = it->second;
            ++counters.memHits;
            return true;
        }
    }
    if (!dir.empty()) {
        std::ifstream in(diskPath(key));
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            CachedResult e;
            std::string why;
            if (deserializeEntry(text.str(), e, &why)) {
                std::lock_guard<std::mutex> lock(mu);
                mem.emplace(key, e);
                ++counters.diskHits;
                out = e;
                return true;
            }
            // A rejected entry counts as a miss, but say why — a
            // silently re-simulating sweep looks identical to a cold
            // one, and a salt mismatch means someone's cache dir is
            // shared across incompatible builds.
            warn("ignoring cache entry ", diskPath(key), ": ", why);
        }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++counters.misses;
    return false;
}

void
ResultCache::insert(const std::string &key, const CachedResult &e)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        mem[key] = e;
    }
    if (dir.empty())
        return;
    // Unique temp name per thread, fsync, then atomic rename: after a
    // power cut the entry is either absent or complete and durable,
    // and processes sharing the directory never read a partial one.
    std::ostringstream tmp;
    tmp << diskPath(key) << ".tmp." << std::this_thread::get_id();
    {
        const std::string text = serializeEntry(e);
        std::FILE *out = std::fopen(tmp.str().c_str(), "w");
        if (!out)
            return; // cache is best-effort; simulation result stands
        const bool wrote =
            std::fwrite(text.data(), 1, text.size(), out) ==
                text.size() &&
            std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
        std::fclose(out);
        if (!wrote) {
            std::error_code ec;
            std::filesystem::remove(tmp.str(), ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp.str(), diskPath(key), ec);
    if (ec)
        std::filesystem::remove(tmp.str(), ec);
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    mem.clear();
    counters = CacheStats{};
}

ResultCache &
processCache()
{
    static ResultCache cache = [] {
        const char *dir = std::getenv("ASAP_CACHE_DIR");
        return ResultCache(dir ? dir : "");
    }();
    return cache;
}

} // namespace asap
