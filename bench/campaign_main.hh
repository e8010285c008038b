/**
 * @file
 * The shared main() of bench/crash_campaign and bench/crash_permute.
 *
 * Both benches run a CampaignSpec through runCampaign() and differ
 * only in the job kind each crash point runs: Crash checks the single
 * canonical post-crash NVM state, Permute enumerates every reachable
 * one. So they share one flag parser, one repro mode and one campaign
 * mode; the kind picks the default --ticks, the verdict table and the
 * permute-only flags (--bound, --sample-seed, --inject-fault,
 * --engine, --permute-jobs, --state), which crash_campaign rejects
 * with usage and exit 2.
 *
 * Header-only like bench_util.hh: each bench's main() is one call to
 * campaignMain().
 */

#ifndef ASAP_BENCH_CAMPAIGN_MAIN_HH
#define ASAP_BENCH_CAMPAIGN_MAIN_HH

#include "bench/bench_util.hh"
#include "exp/crash_campaign.hh"
#include "permute/permute.hh"

namespace asap
{

/** Parsed crash_campaign / crash_permute command line. */
struct CampaignArgs
{
    JobKind kind = JobKind::Crash; //!< what each crash point runs
    BenchArgs bench; //!< common flags; no --workload = all of Table III

    unsigned ticks = 0;   //!< crash points per configuration
    std::string strategy = "stride";
    std::uint64_t tickSeed = 1;
    unsigned cores = 4;
    std::string models = "asap_ep,asap_rp"; //!< comma-separated

    // Permute only.
    std::uint64_t bound = 4096;   //!< max states checked per point
    std::uint64_t sampleSeed = 1; //!< sampling seed above the bound
    std::string fault;            //!< test-only recovery fault hook
    std::string state;            //!< hex mask: check one state only
    std::string engine;           //!< check loop ("", inc., naive)
    unsigned permuteThreads = 1;  //!< state-check worker threads

    bool repro = false;   //!< single-crash-point replay mode
    std::string model = "asap";
    std::string pm = "rp";
    std::uint64_t crashTick = 0;

    bool permute() const { return kind == JobKind::Permute; }
};

[[noreturn]] inline void
campaignUsage(JobKind kind, const char *argv0)
{
    const bool permuteFlags = kind == JobKind::Permute;
    std::fprintf(
        stderr,
        "usage: %s [--ops N] [--seed S] [--workload W] [--media P] "
        "[--jobs N]\n"
        "          [--json PATH] [--ticks N] [--strategy NAME] "
        "[--list-strategies]\n"
        "          [--tick-seed S] [--cores N] [--models "
        "m1_pm1,m2_pm2,...]\n"
        "%s"
        "          [--profile] [--list-media] [--list-workloads]\n"
        "       %s --repro --workload W [--media P] --model M --pm P "
        "--cores N\n"
        "          --ops N --seed S --crash-tick T%s\n",
        argv0,
        permuteFlags ? "          [--bound N] [--sample-seed S] "
                       "[--inject-fault F]\n"
                       "          [--engine E] [--permute-jobs N]\n"
                     : "",
        argv0,
        permuteFlags ? " [--bound N] [--sample-seed S]\n"
                       "          [--inject-fault F] [--state HEXMASK] "
                       "[--engine E] [--permute-jobs N]"
                     : "");
    std::exit(2);
}

inline CampaignArgs
parseCampaignArgs(JobKind kind, int argc, char **argv)
{
    CampaignArgs a;
    a.kind = kind;
    a.ticks = a.permute() ? 12 : 40;
    auto need = [&](int i) {
        if (i + 1 >= argc)
            campaignUsage(kind, argv[0]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--ticks"))
            a.ticks = unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (!std::strcmp(arg, "--strategy"))
            a.strategy = need(i), ++i;
        else if (!std::strcmp(arg, "--list-strategies")) {
            for (const TickStrategyInfo &t : allTickStrategies())
                std::printf("%-8s %s\n", t.name, t.description);
            std::exit(0);
        }
        else if (!std::strcmp(arg, "--tick-seed"))
            a.tickSeed = std::strtoull(need(i), nullptr, 0), ++i;
        else if (!std::strcmp(arg, "--cores"))
            a.cores = unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (!std::strcmp(arg, "--models"))
            a.models = need(i), ++i;
        else if (a.permute() && !std::strcmp(arg, "--bound")) {
            a.bound = std::strtoull(need(i), nullptr, 0), ++i;
            if (a.bound == 0) {
                std::fprintf(stderr,
                             "error: --bound must be >= 1\n");
                std::exit(2);
            }
        }
        else if (a.permute() && !std::strcmp(arg, "--sample-seed"))
            a.sampleSeed = std::strtoull(need(i), nullptr, 0), ++i;
        else if (a.permute() && !std::strcmp(arg, "--inject-fault")) {
            a.fault = need(i), ++i;
            permute::FaultMode fm;
            if (!permute::parsePermuteFault(a.fault, fm)) {
                std::fprintf(stderr,
                             "error: unknown fault mode '%s'; valid "
                             "modes: %s\n", a.fault.c_str(),
                             permute::permuteFaultNames());
                std::exit(2);
            }
        }
        else if (a.permute() && !std::strcmp(arg, "--engine")) {
            a.engine = need(i), ++i;
            permute::Engine eng;
            if (!permute::parsePermuteEngine(a.engine, eng)) {
                std::fprintf(stderr,
                             "error: unknown permute engine '%s'; "
                             "valid engines: %s\n", a.engine.c_str(),
                             permute::permuteEngineNames());
                std::exit(2);
            }
        }
        else if (a.permute() && !std::strcmp(arg, "--permute-jobs"))
            a.permuteThreads =
                unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (a.permute() && !std::strcmp(arg, "--state")) {
            a.state = need(i), ++i;
            std::uint64_t mask;
            if (!permute::maskFromHex(a.state, mask)) {
                std::fprintf(stderr,
                             "error: --state wants a hex atom mask "
                             "(e.g. 1f), got '%s'\n", a.state.c_str());
                std::exit(2);
            }
        }
        else if (!std::strcmp(arg, "--repro"))
            a.repro = true;
        else if (!std::strcmp(arg, "--model"))
            a.model = need(i), ++i;
        else if (!std::strcmp(arg, "--pm"))
            a.pm = need(i), ++i;
        else if (!std::strcmp(arg, "--crash-tick"))
            a.crashTick = std::strtoull(need(i), nullptr, 0), ++i;
        else if (!a.bench.parseFlag(argc, argv, i))
            campaignUsage(kind, argv[0]);
    }
    return a;
}

/** Print one crash point's full verdict (repro mode). */
inline void
printCampaignVerdict(const CrashVerdict &v, bool coverage)
{
    std::printf("verdict: %s\n",
                v.consistent ? "CONSISTENT" : "INCONSISTENT");
    std::printf("  crash tick  %llu (stopped at %llu)\n",
                (unsigned long long)v.crashTick,
                (unsigned long long)v.actualTick);
    std::printf("  frontier   ");
    for (std::uint64_t c : v.committedUpTo)
        std::printf(" e%llu", (unsigned long long)c);
    std::printf("\n");
    if (coverage)
        std::printf("  states checked %llu of %llu reachable (%llu "
                    "distinct images, %llu atoms)%s\n",
                    (unsigned long long)v.statesChecked,
                    (unsigned long long)v.statesReachable,
                    (unsigned long long)v.distinctStates,
                    (unsigned long long)v.permuteAtoms,
                    v.truncated ? " [TRUNCATED]" : "");
    std::printf("  stores logged %llu, lines survived %llu, undo "
                "replayed %llu, ADR drained %llu\n",
                (unsigned long long)v.storesLogged,
                (unsigned long long)v.linesSurvived,
                (unsigned long long)v.undoReplayed,
                (unsigned long long)v.adrDrainWrites);
    // Both zero on Crash verdicts.
    if (v.permuteNs != 0)
        std::printf("  check time %.1f ms (%.0f states/s)\n",
                    double(v.permuteNs) / 1e6,
                    double(v.statesChecked) * 1e9 /
                        double(v.permuteNs));
    if (v.inconsistentStates != 0)
        std::printf("  inconsistent states %llu (first bad mask %s)\n",
                    (unsigned long long)v.inconsistentStates,
                    v.firstBadState.c_str());
    if (!v.message.empty())
        std::printf("  violation: %s\n", v.message.c_str());
}

/** Repro mode: re-run one crash point and print its verdict. */
inline int
runCampaignRepro(const CampaignArgs &a)
{
    const BenchArgs &b = a.bench;
    SimConfig cfg = b.baseConfig();
    cfg.model = parseModelKind(a.model);
    cfg.persistency = parsePersistencyModel(a.pm);
    cfg.numCores = a.cores;
    cfg.seed = b.seed;

    JobSet set;
    if (a.permute())
        set.addPermute(b.workload, cfg, b.params(), a.crashTick,
                       a.bound, a.sampleSeed, a.fault, a.state,
                       a.engine, a.permuteThreads);
    else
        set.addCrash(b.workload, cfg, b.params(), a.crashTick);
    const SweepResult sr = runJobs(set.jobs(), b.options());

    std::printf("=== repro: %s%s%s %s/%s %u cores, crash @ %llu",
                b.workload.c_str(),
                b.media == kDefaultMediaProfile ? "" : " on ",
                b.media == kDefaultMediaProfile ? "" : b.media.c_str(),
                a.model.c_str(), a.pm.c_str(), a.cores,
                (unsigned long long)a.crashTick);
    if (!a.state.empty())
        std::printf(", state %s", a.state.c_str());
    std::printf(" ===\n");
    printCampaignVerdict(sr.verdicts[0], a.permute());
    writeArtifact(b, sr);
    if (b.profile)
        printHostProfile();
    return sr.verdicts[0].consistent ? 0 : 1;
}

/** Crash campaign verdict table and summary line. */
inline void
printCrashTable(const CampaignResult &cr, TickStrategy strategy)
{
    std::printf("=== Crash-injection campaign: %zu crash points, "
                "strategy %s ===\n",
                cr.crashPoints(), toString(strategy).c_str());
    std::printf("%-12s %-10s %5s %9s %7s %7s %5s\n", "workload",
                "model", "cores", "runTicks", "epochs", "points",
                "bad");
    for (const CampaignRow &row : cr.rows) {
        std::printf("%-12s %-10s %5u %9llu %7llu %7zu %5zu\n",
                    row.workload.c_str(),
                    (toString(row.model) + "_" + toString(row.pm))
                        .c_str(),
                    row.cores, (unsigned long long)row.probeTicks,
                    (unsigned long long)row.probeEpochs, row.points,
                    row.points - row.consistent);
    }
    std::printf("campaign: %zu crash points, %zu consistent, %zu "
                "inconsistent\n",
                cr.crashPoints(), cr.crashPoints() - cr.badJobs.size(),
                cr.badJobs.size());
}

/** Permute campaign coverage table and summary line. */
inline void
printPermuteTable(const CampaignResult &cr, const CampaignArgs &a,
                  TickStrategy strategy)
{
    std::printf("=== Crash-state permutation campaign: %zu crash "
                "points, strategy %s, bound %llu%s%s ===\n",
                cr.crashPoints(), toString(strategy).c_str(),
                (unsigned long long)a.bound,
                a.fault.empty() ? "" : ", fault ",
                a.fault.c_str());
    std::printf("%-12s %-10s %5s %7s %10s %10s %6s %5s %5s %9s\n",
                "workload", "model", "cores", "points", "checked",
                "reachable", "cov%", "trunc", "bad", "states/s");
    std::size_t next = 0;
    bool anyTruncated = false;
    for (const CampaignRow &row : cr.rows) {
        std::uint64_t checked = 0, reachable = 0, checkNs = 0;
        std::size_t truncated = 0, bad = 0;
        for (std::size_t i = 0; i < row.points; ++i, ++next) {
            const CrashVerdict &v = cr.sweep.verdicts[next];
            checked += v.statesChecked;
            reachable += v.statesReachable;
            checkNs += v.permuteNs;
            if (v.truncated)
                ++truncated;
            if (!v.consistent)
                ++bad;
        }
        anyTruncated = anyTruncated || truncated != 0;
        const double cov =
            reachable ? 100.0 * double(checked) / double(reachable)
                      : 100.0;
        // Host-side rate; "-" when every verdict in the row was
        // cache-served (permuteNs is never cached). The one
        // non-deterministic table column, mirroring wallSeconds in
        // the JSON header.
        char rate[24];
        if (checkNs)
            std::snprintf(rate, sizeof(rate), "%.0f",
                          double(checked) * 1e9 / double(checkNs));
        else
            std::snprintf(rate, sizeof(rate), "-");
        std::printf("%-12s %-10s %5u %7zu %10llu %10llu %6.1f %5zu "
                    "%5zu %9s\n",
                    row.workload.c_str(),
                    (toString(row.model) + "_" + toString(row.pm))
                        .c_str(),
                    row.cores, row.points,
                    (unsigned long long)checked,
                    (unsigned long long)reachable, cov, truncated,
                    bad, rate);
    }
    std::printf("permute campaign: %zu crash points, %zu consistent, "
                "%zu inconsistent%s\n",
                cr.crashPoints(), cr.crashPoints() - cr.badJobs.size(),
                cr.badJobs.size(),
                anyTruncated ? " (coverage TRUNCATED at some points; "
                               "raise --bound for exhaustive sweeps)"
                             : "");
}

/**
 * Campaign mode: probe, select ticks, sweep, print the verdict table
 * and one `--repro` line per inconsistent crash point.
 * @return 0 if every crash point was consistent, else 1
 */
inline int
runCampaignMode(const CampaignArgs &a)
{
    CampaignSpec spec;
    spec.workloads = a.bench.workloads();
    spec.models = parseModels(a.models);
    spec.coreCounts = {a.cores};
    spec.params = a.bench.params();
    spec.base = a.bench.baseConfig();
    spec.strategy = parseTickStrategy(a.strategy);
    spec.ticksPerConfig = a.ticks;
    spec.tickSeed = a.tickSeed;
    spec.sweepKind = a.kind;
    spec.permuteBound = a.bound;
    spec.permuteSeed = a.sampleSeed;
    spec.permuteFault = a.fault;
    spec.permuteEngine = a.engine;
    spec.permuteThreads = a.permuteThreads;

    const CampaignResult cr = runCampaign(spec, a.bench.options());
    if (a.permute())
        printPermuteTable(cr, a, spec.strategy);
    else
        printCrashTable(cr, spec.strategy);
    for (std::size_t i : cr.badJobs) {
        const CrashVerdict &v = cr.sweep.verdicts[i];
        std::printf("INCONSISTENT: %s\n", v.message.c_str());
        std::printf("  repro: %s\n",
                    reproCommand(cr.sweep.jobs[i],
                                 v.firstBadState).c_str());
    }
    finishSweep(a.bench, cr.sweep);
    return cr.allConsistent() ? 0 : 1;
}

/** The whole bench: main() of crash_campaign (Crash) and
 *  crash_permute (Permute). */
inline int
campaignMain(JobKind kind, int argc, char **argv)
{
    setLogQuiet(true);
    const CampaignArgs a = parseCampaignArgs(kind, argc, argv);
    if (a.repro) {
        if (a.bench.workload.empty()) {
            std::fprintf(stderr,
                         "error: --repro needs --workload\n");
            return 2;
        }
        return runCampaignRepro(a);
    }
    if (!a.state.empty()) {
        std::fprintf(stderr,
                     "error: --state only makes sense with --repro\n");
        return 2;
    }
    return runCampaignMode(a);
}

} // namespace asap

#endif // ASAP_BENCH_CAMPAIGN_MAIN_HH
