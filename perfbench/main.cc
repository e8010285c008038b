/**
 * @file
 * perfbench: the end-to-end, layer-by-layer benchmark of the ASAP
 * simulator (see perfbench/README.md).
 *
 *   perfbench --workload fig08|crash|serve --seed N --seconds S
 *             --trace 0|1 [--size full|tiny] [--out DIR]
 *   perfbench --fault-check [--out DIR]
 *
 * One process is one closed load: all of a workload's jobs submitted at
 * once to nproc workers (--par-domains 1, permute threads 1), every
 * cache cold. Until --seconds have passed it repeats: the workload at
 * nproc workers, then with --trace 1 the traced run and the workload
 * at 1 worker (--trace 0 runs the latter once, for the digest check);
 * each run starts by clearing every cache. --trace 0 reports the
 * end-to-end metrics, --trace 1 the per-layer ones; both run every
 * output check. The last stdout line
 * is one JSON object {correct, attempted, failed, metrics}. Set-up is
 * timed in child runs of this binary given --setup-only, which print
 * one cold set-up time and exit.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "bench.hh"
#include "harness/runner.hh"
#include "sim/log.hh"

using namespace asap;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Cold set-ups timed, each in a child process. */
constexpr int kSetupSamples = 15;

/** Never more workers than this, whatever nproc says (memory). */
constexpr unsigned kMaxWorkers = 16;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    Size size = Size::Full;
    std::string out = ".bench_build/out";
    bool faultCheck = false;
    bool setupOnly = false; //!< child: time one cold set-up, print it
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fig08|crash|serve --seed N "
                 "--seconds S --trace 0|1\n"
                 "          [--size full|tiny] [--out DIR]\n"
                 "       %s --fault-check [--out DIR]\n",
                 argv0, argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fault-check") {
            a.faultCheck = true;
            continue;
        }
        if (arg == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *v = argv[++i];
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
            haveSeed = true;
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace") {
            a.trace = std::atoi(v);
        } else if (arg == "--size") {
            if (std::strcmp(v, "full") && std::strcmp(v, "tiny"))
                usage(argv[0]);
            a.size = std::strcmp(v, "tiny") ? Size::Full : Size::Tiny;
        } else if (arg == "--out") {
            a.out = v;
        } else {
            usage(argv[0]);
        }
    }
    if (a.faultCheck)
        return a;
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end() ||
        !haveSeed || !(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1))
        usage(argv[0]);
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Run this binary with --setup-only for @p a's workload and return the
 * cold set-up time it prints. Fatal if the child fails: a set-up that
 * cannot run means the benchmark cannot either.
 */
double
childSetupSeconds(const Args &a)
{
    const std::string seed = std::to_string(a.seed);
    const char *size = a.size == Size::Full ? "full" : "tiny";
    const char *argv[] = {"perfbench", "--setup-only", "--workload",
                          a.workload.c_str(), "--seed", seed.c_str(),
                          "--seconds", "1", "--trace", "0", "--size",
                          size, "--out", a.out.c_str(), nullptr};
    int fds[2];
    if (pipe(fds) != 0)
        fatal("perfbench: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                    const_cast<char *const *>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    std::string text;
    char buf[128];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || text.empty())
        fatal("perfbench: set-up child failed");
    return std::strtod(text.c_str(), nullptr);
}

/** Peak resident memory of this process so far, in MB. */
double
peakRssMbNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KB
}

/** CPUs this process may run on (what nproc prints). */
unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Where and how a result was measured. */
struct HostRecord
{
    std::string host;
    unsigned nproc = 0;
    unsigned workers = 0;
    std::string compiler;
    std::string buildType = PERFBENCH_BUILD_TYPE;
    std::string date;
};

HostRecord
hostRecord(unsigned nproc, unsigned workers)
{
    HostRecord h;
    char name[256] = {};
    if (gethostname(name, sizeof(name) - 1) == 0)
        h.host = name;
    h.nproc = nproc;
    h.workers = workers;
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    h.date = buf;
    return h;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                checks.failed == 0 ? "true" : "false", checks.attempted,
                checks.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Sum of the deterministic RunResult fields over both batches. */
struct Modelled
{
    Counters sum;
    std::map<std::string, double> p99ByModel; //!< serve jobs only
    double atomsMax = 0.0;
};

Modelled
modelled(const UntracedRun &run)
{
    Modelled m;
    Counters &c = m.sum;
    for (const SweepResult *sr : {&run.probe, &run.batch}) {
        for (std::size_t i = 0; i < sr->jobs.size(); ++i) {
            const RunResult &r = sr->results[i];
            const CrashVerdict &v = sr->verdicts[i];
            c["sim.events"] += double(r.eventsExecuted);
            c["sim.host_s"] += 1e-9 * double(r.hostNs);
            c["cpu.run_ticks"] += double(r.runTicks);
            c["cpu.fence_stall_cycles"] +=
                double(r.dfenceStalled + r.sfenceStalled);
            c["persist.pb_entries"] += double(r.entriesInserted);
            c["persist.pb_blocked_cycles"] += double(r.cyclesBlocked);
            c["persist.epochs"] += double(r.epochs);
            c["persist.cross_deps"] += double(r.crossDeps);
            c["core.rt_undo"] += double(r.totalUndo);
            c["core.rt_nacks"] += double(r.nacks);
            c["core.rt_max_occ"] =
                std::max(c["core.rt_max_occ"], double(r.rtMaxOccupancy));
            c["mem.pm_writes"] += double(r.pmWrites);
            c["mem.wpq_coalesced"] += double(r.wpqCoalesced);
            c["mem.xp_hits"] += double(r.xpHits);
            c["mem.xp_misses"] += double(r.xpMisses);
            c["media.bytes_written"] += double(r.mediaBytesWritten);
            c["media.queue_delay_ticks"] += double(r.mediaQueueDelayTicks);
            c["serve.requests"] += double(r.serveRequests);
            c["permute.states"] += double(v.statesChecked);
            c["permute.loop_s"] += 1e-9 * double(v.permuteNs);
            m.atomsMax = std::max(m.atomsMax, double(v.permuteAtoms));
            if (r.serveRequests) {
                const std::string key = toString(r.model) + "_" +
                                        toString(r.persistency);
                m.p99ByModel[key] =
                    std::max(m.p99ByModel[key], double(r.persistP99));
            }
        }
        c["exp.cache_hits"] += double(sr->cacheHits);
        c["workloads.traces"] += double(sr->traceMisses);
        c["harness.trace_hits"] += double(sr->traceHits);
    }
    return m;
}

/** Output checks of one untraced run. */
void
checkRun(Checks &checks, const Plan &plan, Size size,
         const UntracedRun &run, const std::string &stem,
         std::optional<std::uint64_t> &ref,
         std::optional<Fig08Summary> &fig08)
{
    checks.verdicts(run.batch);

    auto cold = [&](const SweepResult &sr, const char *what) {
        checks.expect(sr.cacheHits == 0 && sr.diskHits == 0 &&
                          sr.traceDiskHits == 0 &&
                          sr.uniqueRuns == sr.jobs.size(),
                      std::string("run not cold: ") + what +
                          " served jobs from a cache");
    };
    cold(run.batch, "batch");
    if (plan.campaign) {
        cold(run.probe, "probe phase");
        checks.expect(run.probe.jobs.size() ==
                          campaignProbeJobs(plan.spec).size(),
                      "probe phase served from the memoised summary");
    }

    const long n = static_cast<long>(run.batch.jobs.size());
    checks.expect(jsonArtifactRows(stem + ".json") == n,
                  "JSON artifact does not parse back with one row per job");
    checks.expect(csvArtifactRows(stem + ".csv") == n,
                  "CSV artifact does not parse back with one row per job");

    const std::uint64_t d = digest(run.probe, run.batch);
    if (!ref)
        ref = d;
    checks.expect(d == *ref, "simulated-statistics digest changed "
                             "between runs (1 vs nproc workers?)");

    if (plan.name != "fig08")
        return;
    const Fig08Summary s = fig08Summary(run.batch);
    fig08 = s;
    // The paper's conclusions hold at paper settings, not at the
    // self-test's tiny sizes.
    if (size == Size::Full) {
        checks.expect(s.ordering,
                      "fig08: gmean baseline < HOPS_RP < ASAP_RP <= eADR "
                      "violated");
        checks.expect(s.asapNearEadr,
                      "fig08: ASAP_RP not within 5% of eADR");
        checks.expect(s.hopsEpBelow, "fig08: HOPS_EP not below baseline "
                                     "on " + s.hopsEpDetail);
    }
}

/** Traced results must match the engine's: the traced run re-enacts
 *  runExperiment / runCrashExperiment call by call. */
bool
tracedMatches(const SweepResult &traced, const SweepResult &engine)
{
    if (traced.jobs.size() != engine.jobs.size())
        return false;
    for (std::size_t i = 0; i < traced.jobs.size(); ++i) {
        const RunResult &a = traced.results[i], &b = engine.results[i];
        const CrashVerdict &va = traced.verdicts[i],
                           &vb = engine.verdicts[i];
        if (a.runTicks != b.runTicks ||
            a.eventsExecuted != b.eventsExecuted ||
            va.consistent != vb.consistent || va.message != vb.message)
            return false;
    }
    return true;
}

/** Per traced run: what the per-layer metrics take medians of. */
struct TracedSample
{
    double wallS = 0.0;
    SelfTimes self;
    double probeS = 0.0;
    double emitS = 0.0;
};

TracedSample
sample(const TracedRun &t)
{
    TracedSample s;
    s.wallS = t.wallS;
    s.self = selfTimes(t.spans);
    for (const Span &sp : t.spans) {
        const double d = 1e-9 * static_cast<double>(sp.durNs());
        if (sp.name == "exp.probePhase")
            s.probeS += d;
        else if (sp.name == "exp.emitToFile")
            s.emitS += d;
    }
    return s;
}

/** Median over traced runs of f(sample). */
template <typename F>
double
medianOf(const std::vector<TracedSample> &xs, F f)
{
    std::vector<double> v;
    for (const TracedSample &x : xs)
        v.push_back(f(x));
    return median(v);
}

double
selfOf(const SelfTimes &s, const std::string &name)
{
    auto it = s.nameSelfS.find(name);
    return it == s.nameSelfS.end() ? 0.0 : it->second;
}

double
layerOf(const SelfTimes &s, const std::string &layer)
{
    auto it = s.layerSelfS.find(layer);
    return it == s.layerSelfS.end() ? 0.0 : it->second;
}

/**
 * The traced-run artifact: the last traced run's spans as Chrome
 * trace-event JSON, and its per-layer self-time table with every
 * ratio beside its base counts.
 */
void
writeLayerReport(const std::string &stem, const Args &args,
                 const HostRecord &host, const TracedRun &t,
                 const UntracedRun &par, const Modelled &m, double wallS,
                 double wallSeqS, double tracedWallS)
{
    writeChromeTrace(stem + "-spans.json", t.spans);
    std::FILE *f = std::fopen((stem + "-layers.txt").c_str(), "w");
    if (!f)
        return;
    const SelfTimes st = selfTimes(t.spans);
    std::fprintf(f, "perfbench traced run: workload %s, seed %" PRIu64
                 ", %u workers (nproc %u), host %s, %s, %s build, %s\n\n",
                 args.workload.c_str(), args.seed, host.workers,
                 host.nproc, host.host.c_str(), host.compiler.c_str(),
                 host.buildType.c_str(), host.date.c_str());
    std::fprintf(f, "wall: traced %.4f s (median), untraced %.4f s "
                 "(median); tracing overhead %.4f s (%.1f%%)\n",
                 tracedWallS, wallS, tracedWallS - wallS,
                 100.0 * ratio(tracedWallS - wallS, wallS));
    std::fprintf(f, "this table: the last traced run, wall %.4f s\n\n",
                 t.wallS);
    std::fprintf(f, "%-30s %7s %10s %8s\n", "span", "count", "self_s",
                 "of_jobs");
    for (const auto &[name, self] : st.nameSelfS) {
        std::fprintf(f, "%-30s %7" PRIu64 " %10.4f %7.1f%%\n",
                     name.c_str(), st.nameCount.at(name), self,
                     100.0 * ratio(self, st.jobSpanS));
    }
    std::fprintf(f, "\nself time inside job spans %.6f s = job spans "
                 "%.6f s (gap %.3g s)\n",
                 st.selfInJobsS, st.jobSpanS,
                 st.selfInJobsS - st.jobSpanS);
    std::fprintf(f, "per layer:");
    for (const auto &[layer, self] : st.layerSelfS)
        std::fprintf(f, " %s %.4f s;", layer.c_str(), self);

    const Counters &c = m.sum;
    const double lookups = c.at("workloads.traces") +
                           c.at("harness.trace_hits");
    const double xp = c.at("mem.xp_hits") + c.at("mem.xp_misses");
    std::fprintf(f, "\n\nratios, with their base counts:\n");
    std::fprintf(f, "  harness.trace_reuse  %.4f = %.0f memo hits / %.0f "
                 "trace lookups (runJobs)\n",
                 ratio(c.at("harness.trace_hits"), lookups),
                 c.at("harness.trace_hits"), lookups);
    std::fprintf(f, "  recovery.index_reuse %.4f = %" PRIu64
                 " index hits / %" PRIu64 " lookups\n",
                 ratio(double(par.indexHits),
                       double(par.indexHits + par.indexBuilds)),
                 par.indexHits, par.indexHits + par.indexBuilds);
    std::fprintf(f, "  mem.xp_hit_ratio     %.4f = %.0f hits / %.0f undo "
                 "reads\n",
                 ratio(c.at("mem.xp_hits"), xp), c.at("mem.xp_hits"), xp);
    std::fprintf(f, "  exp.busy_frac        %.4f = %.4f s in jobs / "
                 "(%.4f s wall x %u workers)\n",
                 ratio(st.jobSpanS, t.wallS * host.workers), st.jobSpanS,
                 t.wallS, host.workers);
    std::fprintf(f, "  exp.scaling          %.4f = wall_seq %.4f s / "
                 "wall %.4f s\n",
                 ratio(wallSeqS, wallS), wallSeqS, wallS);
    std::fprintf(f, "  permute.states_per_s %.4g = %.0f states / %.6f s "
                 "(max %.0f atoms per point)\n",
                 ratio(c.at("permute.states"), c.at("permute.loop_s")),
                 c.at("permute.states"), c.at("permute.loop_s"),
                 m.atomsMax);
    std::fclose(f);
}

/** Host record, digest, checks and metrics of one invocation. */
void
writeRecord(const std::string &path, const Args &args,
            const HostRecord &host, double firstSetupS,
            std::uint64_t digestValue, const Checks &checks,
            const std::vector<Metric> &metrics)
{
    std::ofstream os(path);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digestValue);
    os << "{\n  \"workload\": " << jsonString(args.workload)
       << ",\n  \"seed\": " << args.seed << ",\n  \"trace\": "
       << args.trace << ",\n  \"host\": " << jsonString(host.host)
       << ",\n  \"nproc\": " << host.nproc << ",\n  \"workers\": "
       << host.workers << ",\n  \"compiler\": "
       << jsonString(host.compiler) << ",\n  \"build_type\": "
       << jsonString(host.buildType) << ",\n  \"date\": "
       << jsonString(host.date) << ",\n  \"first_setup_s\": "
       << firstSetupS << ",\n  \"digest\": \"" << hex
       << "\",\n  \"checks\": {\"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed
       << ", \"known\": " << checks.known << "},\n  \"notes\": [";
    for (std::size_t i = 0; i < checks.notes.size(); ++i)
        os << (i ? ", " : "") << jsonString(checks.notes[i]);
    os << "],\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        os << (i ? ",\n    " : "\n    ") << jsonString(metrics[i].name)
           << ": {\"value\": " << buf << ", \"unit\": "
           << jsonString(metrics[i].unit) << "}";
    }
    os << "\n  }\n}\n";
}

int
faultCheck()
{
    // A deliberately broken recovery policy: with every undo record
    // independently droppable, this queue point has inconsistent
    // states. The benchmark must count it, or fail_frac could read
    // zero for the wrong reason.
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Release;
    cfg.numCores = 4;
    WorkloadParams p;
    p.opsPerThread = 200;
    p.seed = 1;
    JobSet set;
    set.addPermute("queue", cfg, p, 8486, 4096, 1, "drop-undo");
    RunOptions opt;
    opt.jobs = 1;
    const SweepResult sr = runJobs(set.jobs(), opt);
    Checks checks;
    checks.verdicts(sr);
    for (const std::string &n : checks.notes)
        std::printf("perfbench: %s\n", n.c_str());
    const bool counted = checks.failFrac() > 0.0;
    std::printf("perfbench: fault check: drop-undo permute job %s in "
                "fail_frac\n", counted ? "counted" : "NOT counted");
    Checks summary;
    summary.expect(counted, "drop-undo fault not counted");
    printResult(summary, {{"fail_frac", checks.failFrac(), "ratio"}});
    return counted ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    const Args args = parseArgs(argc, argv);
    setLogQuiet(true);
    // Every run is cold: no disk tiers, whatever the environment says.
    unsetenv("ASAP_CACHE_DIR");
    unsetenv("ASAP_TRACE_DIR");
    setTraceDirectory("");
    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     args.out.c_str(), ec.message().c_str());
        return 2;
    }
    if (args.faultCheck)
        return faultCheck();

    const unsigned nproc = cpuCount();
    const unsigned workers = std::min(nproc, kMaxWorkers);
    const HostRecord host = hostRecord(nproc, workers);

    // Set-up: process start, cache clearing and job-list expansion,
    // until the first job could be submitted. It is timed cold, in
    // fresh child processes: a warm set-up takes microseconds and swings
    // by 30% with the process's memory layout alone.
    clearCaches();
    const Plan plan = makePlan(args.workload, args.seed, args.size);
    const double firstSetupS = secondsSince(processStart);
    if (args.setupOnly) {
        std::printf("%.9g\n", firstSetupS);
        return 0;
    }
    std::vector<double> setupS;
    for (int i = 0; i < kSetupSamples; ++i)
        setupS.push_back(childSetupSeconds(args));

    const std::string stem = args.out + "/" + args.workload + "-s" +
                             std::to_string(args.seed);
    Checks checks;
    std::optional<std::uint64_t> ref;
    std::optional<Fig08Summary> fig08;
    std::vector<double> parWall, parCpu, seqWall, simRunS, loopS;
    std::vector<double> probeWall, wallRel, cpuRel;
    double peakRssMb = 0.0;
    std::vector<TracedSample> traced;
    UntracedRun lastPar;
    TracedRun lastTraced;

    const auto start = Clock::now();
    do {
        // wall_rel and cpu_rel give each run's times in units of the
        // host's speed just before it (see probe.cc).
        const double hostS = probeHostSeconds(workers);
        UntracedRun par = runUntraced(plan, workers, stem);
        checkRun(checks, plan, args.size, par, stem, ref, fig08);
        parWall.push_back(par.wallS);
        parCpu.push_back(par.cpuS);
        probeWall.push_back(hostS);
        wallRel.push_back(par.wallS / hostS);
        cpuRel.push_back(par.cpuS / hostS);
        // A user runs the workload once: its peak is the process's
        // after the first run. Later runs only add allocator churn.
        if (parWall.size() == 1)
            peakRssMb = peakRssMbNow();
        const Modelled m = modelled(par);
        simRunS.push_back(m.sum.at("sim.host_s"));
        loopS.push_back(m.sum.at("permute.loop_s"));

        if (args.trace) {
            TracedRun t = runTraced(plan, workers, stem + "-traced");
            const bool same = tracedMatches(t.batch, par.batch) &&
                              tracedMatches(t.probe, par.probe);
            checks.expect(same, "traced run's results differ from "
                                "runJobs' (re-enactment drifted)");
            traced.push_back(sample(t));
            const SelfTimes &st = traced.back().self;
            checks.expect(std::abs(st.selfInJobsS - st.jobSpanS) <=
                              1e-6 * std::max(1.0, st.jobSpanS),
                          "layer self times do not add up to the job "
                          "spans");
            lastTraced = std::move(t);
        }
        lastPar = std::move(par);

        // The 1-worker run feeds wall_seq_s (a per-layer metric) and the
        // 1 vs nproc digest check. --trace 0 makes it once, for the
        // check, and spends the rest of its time on nproc-worker runs.
        if (args.trace || seqWall.empty()) {
            const UntracedRun seq = runUntraced(plan, 1, stem);
            checkRun(checks, plan, args.size, seq, stem, ref, fig08);
            seqWall.push_back(seq.wallS);
        }
        std::fprintf(stderr, "perfbench: run %zu: wall %.4f s, cpu %.4f s, "
                     "wall at 1 worker %.4f s, traced wall %.4f s, "
                     "probe %.4f s\n",
                     parWall.size(), parWall.back(), parCpu.back(),
                     seqWall.back(),
                     traced.empty() ? 0.0 : traced.back().wallS,
                     probeWall.back());
    } while (secondsSince(start) < args.seconds);

    const double wallS = median(parWall);
    const double wallSeqS = median(seqWall);
    const Modelled m = modelled(lastPar);
    const Counters &c = m.sum;

    // ---- human-readable record -------------------------------------
    std::printf("perfbench: workload %s seed %" PRIu64 " size %s: %zu "
                "jobs per run, %zu runs at %u workers + %zu at 1\n",
                args.workload.c_str(), args.seed,
                args.size == Size::Full ? "full" : "tiny",
                lastPar.probe.jobs.size() + lastPar.batch.jobs.size(),
                parWall.size(), workers, seqWall.size());
    std::printf("perfbench: host %s, nproc %u, workers %u, %s, %s build, "
                "%s\n",
                host.host.c_str(), host.nproc, host.workers,
                host.compiler.c_str(), host.buildType.c_str(),
                host.date.c_str());
    std::printf("perfbench: digest %016" PRIx64 "\n", ref.value_or(0));
    if (fig08) {
        std::printf("perfbench: fig08 gmean HOPS_EP %.4f HOPS_RP %.4f "
                    "ASAP_EP %.4f ASAP_RP %.4f eADR %.4f; "
                    "fig08_err_pct %.4f; HOPS_EP on %s\n",
                    fig08->gmean[0], fig08->gmean[1], fig08->gmean[2],
                    fig08->gmean[3], fig08->gmean[4], fig08->errPct,
                    fig08->hopsEpDetail.c_str());
    }
    for (const std::string &n : checks.notes)
        std::printf("perfbench: %s\n", n.c_str());
    std::printf("perfbench: checks %" PRIu64 " attempted, %" PRIu64
                " failed unexpectedly, %" PRIu64
                " known seed failure(s); fail_frac %.6g\n",
                checks.attempted, checks.failed, checks.known,
                checks.failFrac());

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(setupS), "s"},
            {"wall_rel", median(wallRel), "x"},
            {"cpu_rel", median(cpuRel), "x"},
            {"peak_rss_mb", peakRssMb, "MB"},
        };
    } else {
        const double jobS = medianOf(
            traced, [](const TracedSample &t) { return t.self.jobSpanS; });
        const double tracedWall = medianOf(
            traced, [](const TracedSample &t) { return t.wallS; });
        const double simRun = median(simRunS);
        const double loop = median(loopS);
        const double lookups = c.at("workloads.traces") +
                               c.at("harness.trace_hits");
        auto span = [&](const char *name) {
            return medianOf(traced, [name](const TracedSample &t) {
                return selfOf(t.self, name);
            });
        };
        auto sys = [&](const char *name) {
            auto it = lastTraced.systemStats.find(name);
            return it == lastTraced.systemStats.end() ? 0.0 : it->second;
        };
        auto p99 = [&](const char *model) {
            auto it = m.p99ByModel.find(model);
            return it == m.p99ByModel.end() ? 0.0 : it->second;
        };
        metrics = {
            {"workloads.gen_s", span("workloads.buildTrace"), "s"},
            {"workloads.traces", c.at("workloads.traces"), "count"},
            {"harness.setup_s",
             medianOf(traced,
                      [](const TracedSample &t) {
                          return layerOf(t.self, "harness");
                      }),
             "s"},
            {"harness.trace_reuse",
             ratio(c.at("harness.trace_hits"), lookups), "ratio"},
            {"sim.run_s", simRun, "s"},
            {"sim.events", c.at("sim.events"), "count"},
            {"sim.ns_per_event", ratio(1e9 * simRun, c.at("sim.events")),
             "ns"},
            {"cpu.ops_retired", sys("core.opsRetired"), "count"},
            {"cpu.run_ticks", c.at("cpu.run_ticks"), "ticks"},
            {"cpu.fence_stall_cycles", c.at("cpu.fence_stall_cycles"),
             "cycles"},
            {"coherence.llc_hits", sys("cache.llcHits"), "count"},
            {"coherence.pm_fills", sys("cache.pmFills"), "count"},
            {"coherence.conflict_transfers",
             sys("cache.conflictTransfers"), "count"},
            {"persist.pb_entries", c.at("persist.pb_entries"), "count"},
            {"persist.pb_blocked_cycles",
             c.at("persist.pb_blocked_cycles"), "cycles"},
            {"persist.epochs", c.at("persist.epochs"), "count"},
            {"persist.cross_deps", c.at("persist.cross_deps"), "count"},
            {"core.rt_undo", c.at("core.rt_undo"), "count"},
            {"core.rt_nacks", c.at("core.rt_nacks"), "count"},
            {"core.rt_max_occ", c.at("core.rt_max_occ"), "count"},
            {"mem.pm_writes", c.at("mem.pm_writes"), "count"},
            {"mem.wpq_coalesced", c.at("mem.wpq_coalesced"), "count"},
            {"mem.xp_hit_ratio",
             ratio(c.at("mem.xp_hits"),
                   c.at("mem.xp_hits") + c.at("mem.xp_misses")),
             "ratio"},
            {"media.bytes_written", c.at("media.bytes_written"), "bytes"},
            {"media.queue_delay_ticks", c.at("media.queue_delay_ticks"),
             "ticks"},
            {"serve.requests", c.at("serve.requests"), "count"},
            {"serve.p99_ticks.baseline_rp", p99("baseline_rp"), "ticks"},
            {"serve.p99_ticks.hops_rp", p99("hops_rp"), "ticks"},
            {"serve.p99_ticks.asap_rp", p99("asap_rp"), "ticks"},
            {"serve.p99_ticks.eadr_rp", p99("eadr_rp"), "ticks"},
            {"recovery.index_s", span("recovery.CheckerIndex"), "s"},
            {"recovery.check_s", span("recovery.check"), "s"},
            {"recovery.index_reuse",
             ratio(double(lastPar.indexHits),
                   double(lastPar.indexHits + lastPar.indexBuilds)),
             "ratio"},
            {"permute.loop_s", loop, "s"},
            {"permute.states", c.at("permute.states"), "count"},
            {"permute.states_per_s", ratio(c.at("permute.states"), loop),
             "1/s"},
            {"permute.atoms_max", m.atomsMax, "count"},
            {"exp.busy_frac", ratio(jobS, tracedWall * workers), "ratio"},
            {"exp.idle_s", tracedWall * workers - jobS, "s"},
            {"exp.scaling", ratio(wallSeqS, wallS), "x"},
            {"exp.probe_s",
             medianOf(traced,
                      [](const TracedSample &t) { return t.probeS; }),
             "s"},
            {"exp.emit_s",
             medianOf(traced,
                      [](const TracedSample &t) { return t.emitS; }),
             "s"},
            {"exp.job_self_s", span("exp.job"), "s"},
            {"exp.cache_hits", c.at("exp.cache_hits"), "count"},
            {"trace.wall_s", tracedWall, "s"},
            {"trace.overhead_s", tracedWall - wallS, "s"},
            {"trace.overhead_frac", ratio(tracedWall - wallS, wallS),
             "ratio"},
            {"wall_s", wallS, "s"},
            {"cpu_s", median(parCpu), "s"},
            {"wall_seq_s", wallSeqS, "s"},
            {"host.probe_s", median(probeWall), "s"},
            {"fail_frac", checks.failFrac(), "ratio"},
            {"known_failures", double(checks.known), "count"},
            {"fig08_err_pct", fig08 ? fig08->errPct : 0.0, "%"},
        };
        writeLayerReport(stem, args, host, lastTraced, lastPar, m,
                         wallS, wallSeqS, tracedWall);
    }
    writeRecord(stem + "-t" + std::to_string(args.trace) + ".record.json",
                args, host, firstSetupS, ref.value_or(0), checks,
                metrics);
    printResult(checks, metrics);
    return 0;
}
