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
    BenchArgs bench; //!< common flags; no --workload = all of Table III

    unsigned ticks = 40;  //!< crash points per configuration
    std::string strategy = "stride";
    std::uint64_t tickSeed = 1;
    unsigned cores = 4;
    std::string models = "asap_ep,asap_rp"; //!< comma-separated

    bool repro = false;   //!< single-crash-point replay mode
    std::string model = "asap";
    std::string pm = "rp";
    std::uint64_t crashTick = 0;
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
        "          [--progress] [--profile] [--list-media] "
        "[--list-workloads]\n"
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
        else if (!std::strcmp(arg, "--repro"))
            a.repro = true;
        else if (!std::strcmp(arg, "--model"))
            a.model = need(i), ++i;
        else if (!std::strcmp(arg, "--pm"))
            a.pm = need(i), ++i;
        else if (!std::strcmp(arg, "--crash-tick"))
            a.crashTick = std::strtoull(need(i), nullptr, 0), ++i;
        else if (!a.bench.parseFlag(argc, argv, i))
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
    const BenchArgs &b = a.bench;
    SimConfig cfg = b.baseConfig();
    cfg.model = parseModelKind(a.model);
    cfg.persistency = parsePersistencyModel(a.pm);
    cfg.numCores = a.cores;
    cfg.seed = b.seed;

    JobSet set;
    set.addCrash(b.workload, cfg, b.params(), a.crashTick);
    const SweepResult sr = runJobs(set.jobs(), b.options());

    std::printf("=== repro: %s%s%s %s/%s %u cores, crash @ %llu ===\n",
                b.workload.c_str(),
                b.media == kDefaultMediaProfile ? "" : " on ",
                b.media == kDefaultMediaProfile ? "" : b.media.c_str(),
                a.model.c_str(), a.pm.c_str(), a.cores,
                (unsigned long long)a.crashTick);
    printVerdict(sr.verdicts[0]);
    writeArtifact(b, sr);
    if (b.profile)
        printHostProfile();
    return sr.verdicts[0].consistent ? 0 : 1;
}

int
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

    const CampaignResult cr = runCampaign(spec, a.bench.options());
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
    finishSweep(a.bench, cr.sweep);
    return cr.allConsistent() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const CampaignArgs a = parseArgs(argc, argv);
    if (a.repro) {
        if (a.bench.workload.empty()) {
            std::fprintf(stderr,
                         "error: --repro needs --workload\n");
            return 2;
        }
        return runRepro(a);
    }
    return runCampaignMode(a);
}
