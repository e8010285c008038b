#include "exp/emit.hh"

#include <algorithm>
#include <fstream>

#include "sim/log.hh"

namespace asap
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Does an artifact with (or without) media and serve columns carry
 *  @p f? Those groups appear only in sweeps that need them, so older
 *  artifacts keep their schema byte-for-byte. */
bool
emitted(const ResultField &f, bool media, bool serve)
{
    return f.group == ResultGroup::All ||
           (f.group == ResultGroup::Media && media) ||
           (f.group == ResultGroup::Serve && serve);
}

/** Media column label: the profile, or the '+'-joined per-MC list on
 *  heterogeneous jobs (',' is the CSV delimiter). */
std::string
mediaLabel(const SimConfig &cfg)
{
    if (cfg.mediaPerMc.empty())
        return cfg.mediaProfile;
    std::string label = cfg.mediaPerMc;
    for (char &c : label) {
        if (c == ',')
            c = '+';
    }
    return label;
}

/** RFC-4180 CSV quoting (verdict messages contain commas). */
std::string
csvQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
emitJson(std::ostream &os, const SweepResult &sr)
{
    os << "{\n  \"sweep\": {\"jobs\": " << sr.jobs.size()
       << ", \"uniqueRuns\": " << sr.uniqueRuns
       << ", \"cacheHits\": " << sr.cacheHits
       << ", \"diskHits\": " << sr.diskHits
       << ", \"traceHits\": " << sr.traceHits
       << ", \"traceMisses\": " << sr.traceMisses
       << ", \"traceDiskHits\": " << sr.traceDiskHits
       << ", \"wallSeconds\": " << sr.wallSeconds;
    // Permute throughput aggregate. Host-side numbers live in the
    // sweep header next to wallSeconds — the one non-deterministic
    // corner of the artifact — so per-row results stay byte-stable
    // across hosts, cache states and worker counts. Zero hostNs (all
    // verdicts cache-served) yields a zero rate.
    if (sr.hasPermuteJobs()) {
        std::uint64_t states = 0, ns = 0;
        for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
            if (sr.jobs[i].kind != JobKind::Permute)
                continue;
            states += sr.verdicts[i].statesChecked;
            ns += sr.verdicts[i].permuteNs;
        }
        const double rate =
            ns ? static_cast<double>(states) * 1e9 /
                     static_cast<double>(ns)
               : 0.0;
        os << ", \"permuteStatesChecked\": " << states
           << ", \"permuteHostNs\": " << ns
           << ", \"permuteStatesPerSec\": " << rate;
    }
    os << "},\n"
       << "  \"results\": [\n";
    const bool media = sr.hasNonDefaultMedia();
    const bool serve = sr.hasServeJobs();
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const ExperimentJob &j = sr.jobs[i];
        const RunResult &r = sr.results[i];
        os << "    {\"workload\": \"" << jsonEscape(j.workload)
           << "\", \"model\": \"" << toString(j.cfg.model)
           << "\", \"persistency\": \"" << toString(j.cfg.persistency)
           << "\", \"cores\": " << j.cfg.numCores;
        if (media)
            os << ", \"media\": \"" << jsonEscape(mediaLabel(j.cfg))
               << '"';
        os << ", \"seed\": " << j.params.seed
           << ", \"opsPerThread\": " << j.params.opsPerThread;
        for (const ResultField &f : kResultFields) {
            if (!emitted(f, media, serve))
                continue;
            os << ", \"" << f.name << "\": ";
            f.print(os, r);
        }
        // Crash/permute jobs append the tagged verdict payload;
        // pure-Run sweeps keep the PR 1 schema byte-for-byte.
        if (j.kind != JobKind::Run) {
            const CrashVerdict &v = sr.verdicts[i];
            os << ", \"kind\": \"" << toString(j.kind) << '"'
               << ", \"crashTick\": " << v.crashTick
               << ", \"actualTick\": " << v.actualTick
               << ", \"consistent\": "
               << (v.consistent ? "true" : "false")
               << ", \"message\": \"" << jsonEscape(v.message) << '"'
               << ", \"committedUpTo\": [";
            for (std::size_t t = 0; t < v.committedUpTo.size(); ++t) {
                os << (t ? ", " : "") << v.committedUpTo[t];
            }
            os << "], \"storesLogged\": " << v.storesLogged
               << ", \"linesSurvived\": " << v.linesSurvived
               << ", \"undoReplayed\": " << v.undoReplayed
               << ", \"adrDrainWrites\": " << v.adrDrainWrites;
            // Coverage block: permute jobs only, so legacy crash
            // campaigns keep their per-row schema.
            if (j.kind == JobKind::Permute) {
                os << ", \"statesChecked\": " << v.statesChecked
                   << ", \"statesReachable\": " << v.statesReachable
                   << ", \"distinctStates\": " << v.distinctStates
                   << ", \"permuteAtoms\": " << v.permuteAtoms
                   << ", \"truncated\": "
                   << (v.truncated ? "true" : "false")
                   << ", \"inconsistentStates\": "
                   << v.inconsistentStates << ", \"firstBadState\": \""
                   << jsonEscape(v.firstBadState) << '"';
            }
        }
        os << '}' << (i + 1 < sr.jobs.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

void
emitCsv(std::ostream &os, const SweepResult &sr)
{
    // Verdict columns appear only when the sweep has crash jobs, and
    // media columns only when a non-default profile is present, so
    // existing Run-only artifacts keep their column set.
    const bool crash = sr.hasCrashJobs();
    const bool permute = sr.hasPermuteJobs();
    const bool verdict = crash || permute;
    const bool media = sr.hasNonDefaultMedia();
    const bool serve = sr.hasServeJobs();
    os << "workload,model,persistency,cores";
    if (media)
        os << ",media";
    os << ",seed,opsPerThread";
    for (const ResultField &f : kResultFields) {
        if (emitted(f, media, serve))
            os << ',' << f.name;
    }
    if (verdict) {
        os << ",kind,crashTick,actualTick,consistent,committedMax,"
              "storesLogged,linesSurvived,undoReplayed,adrDrainWrites";
        // Coverage columns only when the sweep permutes states, so
        // legacy crash-campaign CSVs keep their column set; crash
        // rows in a mixed sweep carry zeros.
        if (permute)
            os << ",statesChecked,statesReachable,distinctStates,"
                  "truncated";
        os << ",message";
    }
    os << '\n';
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const ExperimentJob &j = sr.jobs[i];
        const RunResult &r = sr.results[i];
        os << j.workload << ',' << toString(j.cfg.model) << ','
           << toString(j.cfg.persistency) << ',' << j.cfg.numCores;
        if (media)
            os << ',' << mediaLabel(j.cfg);
        os << ',' << j.params.seed << ',' << j.params.opsPerThread;
        for (const ResultField &f : kResultFields) {
            if (!emitted(f, media, serve))
                continue;
            os << ',';
            f.print(os, r);
        }
        if (verdict) {
            const CrashVerdict &v = sr.verdicts[i];
            std::uint64_t committedMax = 0;
            for (std::uint64_t c : v.committedUpTo)
                committedMax = std::max(committedMax, c);
            os << ',' << toString(j.kind) << ',' << v.crashTick << ','
               << v.actualTick << ',' << (v.consistent ? 1 : 0) << ','
               << committedMax << ',' << v.storesLogged << ','
               << v.linesSurvived << ',' << v.undoReplayed << ','
               << v.adrDrainWrites;
            if (permute)
                os << ',' << v.statesChecked << ',' << v.statesReachable
                   << ',' << v.distinctStates << ','
                   << (v.truncated ? 1 : 0);
            os << ',' << csvQuote(v.message);
        }
        os << '\n';
    }
}

bool
emitToFile(const std::string &path, const SweepResult &sr)
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot write sweep artifact to ", path);
        return false;
    }
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
        emitCsv(out, sr);
    else
        emitJson(out, sr);
    return true;
}

} // namespace asap
