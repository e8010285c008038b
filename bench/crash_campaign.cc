/**
 * @file
 * Crash-injection campaign driver: the executable counterpart of the
 * Section VI proofs, at scale. Sweeps power-failure points (crash
 * tick x workload x model x core count) through the exp engine and
 * checks every post-crash NVM state against the recovery checker's
 * consistency predicate (dependency-closed committed-epoch frontier).
 *
 * Campaign mode (default): one verdict-table row per configuration,
 * a summary line, and a non-zero exit if any crash point was
 * inconsistent — each failure prints a single `--repro` command line
 * that replays it exactly.
 *
 * Repro mode (`--repro`): re-run one crash point and print the full
 * verdict (frontier, undo replays, violation message if any).
 */

#include "bench/bench_util.hh"

#include "exp/crash_campaign.hh"

using namespace asap;

namespace
{

struct CampaignArgs
{
    unsigned ops = 200;
    std::uint64_t seed = 1;
    std::string workload; //!< empty = all Table III workloads
    std::string media = kDefaultMediaProfile; //!< media profile
    unsigned jobs = 0;
    std::string jsonPath;

    unsigned ticks = 40;  //!< crash points per configuration
    std::string strategy = "stride";
    std::uint64_t tickSeed = 1;
    unsigned cores = 4;
    std::string models = "asap_ep,asap_rp"; //!< comma-separated

    bool repro = false;   //!< single-crash-point replay mode
    std::string model = "asap";
    std::string pm = "rp";
    std::uint64_t crashTick = 0;

    bool progress = false; //!< stderr progress/ETA lines
    bool sharded = false;  //!< --shard: distributed campaign mode
    ShardSpec shard;
    bool claim = false;
    double leaseTtl = 60.0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--ops N] [--seed S] [--workload W] [--media P] "
        "[--jobs N]\n"
        "          [--json PATH] [--ticks N] [--strategy NAME] "
        "[--list-strategies]\n"
        "          [--tick-seed S] [--cores N] [--models "
        "m1_pm1,m2_pm2,...]\n"
        "          [--progress]\n"
        "          [--shard i/n [--claim] [--salt S] "
        "[--lease-ttl SEC]]\n"
        "       %s --repro --workload W [--media P] --model M --pm P "
        "--cores N\n"
        "          --ops N --seed S --crash-tick T\n",
        argv0, argv0);
    std::exit(2);
}

CampaignArgs
parseArgs(int argc, char **argv)
{
    CampaignArgs a;
    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--ops"))
            a.ops = unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (!std::strcmp(arg, "--seed"))
            a.seed = std::strtoull(need(i), nullptr, 0), ++i;
        else if (!std::strcmp(arg, "--workload"))
            a.workload = need(i), ++i;
        else if (!std::strcmp(arg, "--media")) {
            a.media = need(i), ++i;
            if (!isMediaProfile(a.media)) {
                std::fprintf(stderr, "error: unknown media profile "
                             "'%s' (try --list-media)\n",
                             a.media.c_str());
                std::exit(2);
            }
        }
        else if (!std::strcmp(arg, "--list-media")) {
            for (const MediaProfileInfo &m : allMediaProfiles())
                std::printf("%-14s %s\n", m.name.c_str(),
                            m.description.c_str());
            std::exit(0);
        }
        else if (!std::strcmp(arg, "--jobs"))
            a.jobs = unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (!std::strcmp(arg, "--json"))
            a.jsonPath = need(i), ++i;
        else if (!std::strcmp(arg, "--ticks"))
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
        else if (!std::strcmp(arg, "--repro"))
            a.repro = true;
        else if (!std::strcmp(arg, "--model"))
            a.model = need(i), ++i;
        else if (!std::strcmp(arg, "--pm"))
            a.pm = need(i), ++i;
        else if (!std::strcmp(arg, "--crash-tick"))
            a.crashTick = std::strtoull(need(i), nullptr, 0), ++i;
        else if (!std::strcmp(arg, "--progress"))
            a.progress = true;
        else if (!std::strcmp(arg, "--shard")) {
            const std::string salt = a.shard.salt; // keep --salt
            a.shard = parseShardSpec(need(i)), ++i;
            a.shard.salt = salt;
            a.sharded = true;
        } else if (!std::strcmp(arg, "--claim"))
            a.claim = true;
        else if (!std::strcmp(arg, "--salt"))
            a.shard.salt = need(i), ++i;
        else if (!std::strcmp(arg, "--lease-ttl"))
            a.leaseTtl = std::strtod(need(i), nullptr), ++i;
        else
            usage(argv[0]);
    }
    return a;
}

/** Parse "asap_rp,hops_ep,..." into (model, persistency) pairs. */
std::vector<ModelPair>
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
        if (item.empty() || us == std::string::npos) {
            std::fprintf(stderr,
                         "error: bad --models entry '%s' (want e.g. "
                         "asap_rp)\n", item.c_str());
            std::exit(2);
        }
        models.emplace_back(parseModelKind(item.substr(0, us)),
                            parsePersistencyModel(item.substr(us + 1)));
        start = end + 1;
    }
    return models;
}

WorkloadParams
paramsFor(const CampaignArgs &a)
{
    WorkloadParams p;
    p.opsPerThread = a.ops;
    p.seed = a.seed;
    return p;
}

void
printVerdict(const CrashVerdict &v)
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
    std::printf("  stores logged %llu, lines survived %llu, undo "
                "replayed %llu, ADR drained %llu\n",
                (unsigned long long)v.storesLogged,
                (unsigned long long)v.linesSurvived,
                (unsigned long long)v.undoReplayed,
                (unsigned long long)v.adrDrainWrites);
    if (!v.message.empty())
        std::printf("  violation: %s\n", v.message.c_str());
}

int
runRepro(const CampaignArgs &a)
{
    SimConfig cfg;
    cfg.mediaProfile = a.media;
    cfg.model = parseModelKind(a.model);
    cfg.persistency = parsePersistencyModel(a.pm);
    cfg.numCores = a.cores;
    cfg.seed = a.seed;

    JobSet set;
    set.addCrash(a.workload, cfg, paramsFor(a), a.crashTick);
    RunOptions opt;
    opt.jobs = a.jobs;
    const SweepResult sr = runJobs(set.jobs(), opt);

    std::printf("=== repro: %s%s%s %s/%s %u cores, crash @ %llu ===\n",
                a.workload.c_str(),
                a.media == kDefaultMediaProfile ? "" : " on ",
                a.media == kDefaultMediaProfile ? "" : a.media.c_str(),
                a.model.c_str(), a.pm.c_str(), a.cores,
                (unsigned long long)a.crashTick);
    printVerdict(sr.verdicts[0]);
    return sr.verdicts[0].consistent ? 0 : 1;
}

int
runCampaignMode(const CampaignArgs &a, const BenchArgs &emitArgs)
{
    CampaignSpec spec;
    if (a.workload.empty()) {
        for (const WorkloadInfo &w : allWorkloads())
            spec.workloads.push_back(w.name);
    } else {
        spec.workloads.push_back(a.workload);
    }
    spec.models = parseModels(a.models);
    spec.coreCounts = {a.cores};
    spec.params = paramsFor(a);
    spec.base.mediaProfile = a.media;
    spec.strategy = parseTickStrategy(a.strategy);
    spec.ticksPerConfig = a.ticks;
    spec.tickSeed = a.tickSeed;

    if (emitArgs.sharded) {
        // Distributed campaign: every shard needs every probe result
        // to derive the identical crash job list, so the probe phase
        // blocks until all probes are in the shared cache (simulated
        // at most once cluster-wide via the lease protocol). Only the
        // crash sweep itself is then sharded. A memoized probe
        // summary (any earlier campaign over these configs) skips
        // the phase outright.
        bool fromMemo = false;
        const std::vector<ProbeStat> stats = ensureProbeStats(
            spec, emitArgs.options(),
            [&](std::vector<ExperimentJob> jobs, const RunOptions &) {
                return ensureJobs(jobs, emitArgs.distOptions());
            },
            &fromMemo);
        if (fromMemo)
            std::fprintf(stderr,
                         "probe phase: served from memoized summary\n");
        const CampaignExpansion ex = expandCampaign(spec, stats);
        if (maybeRunShard(emitArgs, ex.crashJobs))
            return 0;
    }

    const CampaignResult cr = runCampaign(spec, emitArgs.options());
    if (cr.probePhaseCached) {
        // stderr only: the verdict table must stay byte-identical
        // between cold and warm campaigns.
        std::fprintf(stderr,
                     "probe phase: served from memoized summary\n");
    }

    std::printf("=== Crash-injection campaign: %zu crash points, "
                "strategy %s ===\n",
                cr.crashPoints(), toString(spec.strategy).c_str());
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
    for (std::size_t i : cr.badJobs) {
        std::printf("INCONSISTENT: %s\n",
                    cr.sweep.verdicts[i].message.c_str());
        std::printf("  repro: %s\n",
                    reproCommand(cr.sweep.jobs[i]).c_str());
    }
    finishSweep(emitArgs, cr.sweep);
    return cr.allConsistent() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const CampaignArgs a = parseArgs(argc, argv);
    if (a.repro) {
        if (a.workload.empty()) {
            std::fprintf(stderr,
                         "error: --repro needs --workload\n");
            return 2;
        }
        return runRepro(a);
    }
    // Reuse the shared bench epilogue (artifact + accounting line).
    BenchArgs emitArgs;
    emitArgs.ops = a.ops;
    emitArgs.seed = a.seed;
    emitArgs.workload = a.workload;
    emitArgs.jobs = a.jobs;
    emitArgs.jsonPath = a.jsonPath;
    emitArgs.progress = a.progress;
    emitArgs.sharded = a.sharded;
    emitArgs.shard = a.shard;
    emitArgs.claim = a.claim;
    emitArgs.leaseTtl = a.leaseTtl;
    return runCampaignMode(a, emitArgs);
}
