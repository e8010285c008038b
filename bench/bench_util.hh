/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every engine-backed bench accepts:
 *   --ops N        high-level operations per thread (default 200)
 *   --seed S       RNG seed
 *   --workload W   restrict to one workload (default: all)
 *   --media P      NVM media profile (default: paper-table2)
 *   --jobs N       parallel simulations (default: hardware threads)
 *   --json PATH    write the sweep's raw results as JSON (.csv: CSV)
 *   --profile      host-time phase breakdown on stderr after the run
 *   --list-media   print the media-profile registry and exit
 *   --list-workloads  print the workload registry and exit
 *
 * BenchArgs::parseFlag parses them in one place; a bench with flags
 * of its own tries those first and falls back to it. Every numeric
 * value goes through parseUnsignedFlag, so a malformed one exits 2.
 * A bench rejects a common flag it has no use for rather than ignore
 * it: media_sweep takes --profiles instead of --media, serve_bench
 * takes --scenario and --list-scenarios instead of --workload and
 * --list-workloads, and fig13 runs only its own microbenchmark (no
 * --workload).
 * splitList and parseModels parse the comma lists those flags take
 * (--models, --profiles, --scenario, --media-per-mc).
 *
 * Benches build an ExperimentJob list (JobSet or SweepSpec), run it
 * through the exp engine, and format tables from the deterministic,
 * submission-ordered results — so a bench's stdout is byte-identical
 * whatever --jobs is.
 */

#ifndef ASAP_BENCH_BENCH_UTIL_HH
#define ASAP_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "media/media.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
#include "exp/sweep.hh"
#include "harness/runner.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

namespace asap
{

/**
 * Parse @p text, the value of the numeric flag @p flag, into @p field.
 * A value tryParseUnsigned() rejects ("30x", "-1", " 5", or one the
 * field cannot hold) is a usage error: exit 2.
 */
template <typename T>
void
parseUnsignedFlag(const char *flag, const char *text, T &field)
{
    if (tryParseUnsigned(text, field))
        return;
    std::fprintf(stderr, "error: %s wants an unsigned integer of at "
                 "most %llu, not '%s'\n", flag,
                 static_cast<unsigned long long>(
                     std::numeric_limits<T>::max()),
                 text);
    std::exit(2);
}

/** Parsed bench command line. */
struct BenchArgs
{
    unsigned ops = 200;
    std::uint64_t seed = 1;
    std::string workload; //!< empty = all
    std::string media = kDefaultMediaProfile; //!< media profile
    unsigned jobs = 0;    //!< sweep workers; 0 = hardware default
    std::string jsonPath; //!< empty = no artifact
    bool profile = false; //!< stderr host-time phase breakdown

    /**
     * Consume the common flag at argv[i] and its value, leaving i on
     * the last argument used. Returns false if argv[i] is not a
     * common flag or its value is missing, so the caller reports
     * usage.
     */
    bool
    parseFlag(int argc, char **argv, int &i)
    {
        const char *arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (!std::strcmp(arg, "--ops") && hasValue) {
            parseUnsignedFlag(arg, argv[++i], ops);
        } else if (!std::strcmp(arg, "--seed") && hasValue) {
            parseUnsignedFlag(arg, argv[++i], seed);
        } else if (!std::strcmp(arg, "--workload") && hasValue) {
            workload = argv[++i];
        } else if (!std::strcmp(arg, "--media") && hasValue) {
            media = argv[++i];
            if (!isMediaProfile(media)) {
                std::fprintf(stderr, "error: unknown media profile "
                             "'%s' (try --list-media)\n",
                             media.c_str());
                std::exit(2);
            }
        } else if (!std::strcmp(arg, "--list-media")) {
            for (const MediaProfileInfo &m : allMediaProfiles())
                std::printf("%-14s %s\n", m.name.c_str(),
                            m.description.c_str());
            std::exit(0);
        } else if (!std::strcmp(arg, "--list-workloads")) {
            for (const WorkloadInfo &w : allWorkloads())
                std::printf("%-10s %s\n", w.name.c_str(),
                            w.description.c_str());
            std::exit(0);
        } else if (!std::strcmp(arg, "--jobs") && hasValue) {
            parseUnsignedFlag(arg, argv[++i], jobs);
        } else if (!std::strcmp(arg, "--json") && hasValue) {
            jsonPath = argv[++i];
        } else if (!std::strcmp(arg, "--profile")) {
            profile = true;
        } else {
            return false;
        }
        return true;
    }

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs a;
        for (int i = 1; i < argc; ++i) {
            if (!a.parseFlag(argc, argv, i)) {
                std::fprintf(stderr,
                             "usage: %s [--ops N] [--seed S] "
                             "[--workload W] [--media P] [--jobs N] "
                             "[--json PATH] [--profile] "
                             "[--list-media] [--list-workloads]\n",
                             argv[0]);
                std::exit(2);
            }
        }
        return a;
    }

    /** Workload names this bench should sweep. */
    std::vector<std::string>
    workloads() const
    {
        std::vector<std::string> names;
        if (!workload.empty()) {
            names.push_back(workload);
            return names;
        }
        for (const WorkloadInfo &w : allWorkloads())
            names.push_back(w.name);
        return names;
    }

    WorkloadParams
    params() const
    {
        WorkloadParams p;
        p.opsPerThread = ops;
        p.seed = seed;
        return p;
    }

    /** Base SimConfig with the selected media profile applied. Every
     *  bench starts from this so --media reaches each job. */
    SimConfig
    baseConfig() const
    {
        SimConfig cfg;
        cfg.mediaProfile = media;
        return cfg;
    }

    RunOptions
    options() const
    {
        RunOptions opt;
        opt.jobs = jobs;
        return opt;
    }
};

/** Split a comma list, skipping empty items ("a,,b" -> {a, b}). */
inline std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t end = list.find(',', start);
        if (end == std::string::npos)
            end = list.size();
        if (end > start)
            out.push_back(list.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

/**
 * Parse a --models list ("asap_rp,hops_ep,...") into (model,
 * persistency) pairs. An empty or unknown entry is a usage error:
 * exit 2.
 */
inline std::vector<ModelPair>
parseModels(const std::string &list)
{
    std::vector<ModelPair> models;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t end = list.find(',', start);
        if (end == std::string::npos)
            end = list.size();
        const std::string item = list.substr(start, end - start);
        const std::size_t us = item.rfind('_');
        ModelPair m;
        if (us == std::string::npos ||
            !tryParseModelKind(item.substr(0, us), m.first) ||
            !tryParsePersistencyModel(item.substr(us + 1), m.second)) {
            std::fprintf(stderr,
                         "error: bad --models entry '%s' (want e.g. "
                         "asap_rp)\n", item.c_str());
            std::exit(2);
        }
        models.push_back(m);
        start = end + 1;
    }
    return models;
}

/** Geometric mean of a series (ignores non-positive entries). */
inline double
gmean(const std::vector<double> &xs)
{
    double acc = 0.0;
    unsigned n = 0;
    for (double x : xs) {
        if (x > 0) {
            acc += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(acc / n) : 0.0;
}

/** Arithmetic mean of a series (0 if empty). */
inline double
amean(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return xs.empty() ? 0.0 : acc / static_cast<double>(xs.size());
}

/**
 * Print the process-wide host-time phase breakdown on stderr.
 * Wall-clock is non-deterministic, so none of this may reach stdout.
 */
inline void
printHostProfile()
{
    const HostProfile hp = hostProfile();
    auto sec = [](std::uint64_t ns) { return 1e-9 * double(ns); };
    std::fprintf(stderr,
                 "[profile] trace-gen %.3fs  trace-load %.3fs  "
                 "simulate %.3fs  check %.3fs  (%llu sim runs)\n",
                 sec(hp.traceGenNs), sec(hp.traceLoadNs),
                 sec(hp.simulateNs), sec(hp.checkNs),
                 static_cast<unsigned long long>(hp.simRuns));
}

/** Write the artifact if --json was given. */
inline void
writeArtifact(const BenchArgs &args, const SweepResult &sr)
{
    // Report artifact failures directly: benches run with
    // setLogQuiet(true), which would swallow emitToFile's warn().
    if (!args.jsonPath.empty() && !emitToFile(args.jsonPath, sr))
        std::fprintf(stderr, "error: could not write sweep artifact "
                     "to %s\n", args.jsonPath.c_str());
}

/**
 * Shared bench epilogue: write the artifact if --json was given and
 * report the engine's dedup/cache accounting. The counters are
 * deterministic (unlike wall-clock, which only goes to stderr), so
 * stdout stays byte-identical across --jobs settings.
 */
inline void
finishSweep(const BenchArgs &args, const SweepResult &sr)
{
    writeArtifact(args, sr);
    std::printf("[sweep: %zu jobs, %zu simulated, %llu cache hits]\n",
                sr.jobs.size(), sr.uniqueRuns,
                static_cast<unsigned long long>(sr.cacheHits));
    // Disk-trace replays vary with ASAP_TRACE_DIR warmth, so they are
    // stderr-only (the JSON header carries them deterministically per
    // invocation).
    std::fprintf(stderr, "sweep wall-clock: %.2fs (%llu disk-trace "
                 "replays)\n", sr.wallSeconds,
                 static_cast<unsigned long long>(sr.traceDiskHits));
    if (args.profile)
        printHostProfile();
}

} // namespace asap

#endif // ASAP_BENCH_BENCH_UTIL_HH
