/**
 * @file
 * Streaming request-serving bench: datacenter scenarios at scale.
 *
 * Runs serve:* scenarios (src/serve/) through the experiment engine
 * and prints, per scenario, each model's sustained request throughput
 * and the persist-latency tail (p50/p99/p999/max in nanoseconds).
 * Ops are generated incrementally by ServeStream, so --ops can be
 * 10^8+ without materializing a trace: RSS stays bounded by the
 * touched working set, not the op count. Peak RSS is reported on
 * stderr so the constant-memory claim is checkable from scripts.
 *
 * The scenario axis rides the cache key like any workload name, so
 * re-runs dedup exactly like the figure benches.
 */

#include <sys/resource.h>

#include "bench/bench_util.hh"
#include "serve/scenario.hh"

using namespace asap;

namespace
{

struct ServeBenchArgs
{
    BenchArgs bench;        //!< common flags (no --workload)
    std::string scenarios;  //!< comma list; empty = all
    std::string models = "baseline_rp,hops_rp,asap_rp,eadr_rp";
    std::string mediaPerMc; //!< per-MC profile list; empty = uniform
    unsigned cores = 8;
    unsigned mcs = 0;       //!< 0 = SimConfig default
    unsigned keySpace = 0;  //!< 0 = WorkloadParams default
    unsigned updatePct = 200; //!< >100 = WorkloadParams default
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--ops N] [--seed S] [--scenario s1,s2,...]\n"
        "          [--models m1_pm1,...] [--cores N] [--mcs N]\n"
        "          [--keyspace N] [--update-pct P] [--media P]\n"
        "          [--media-per-mc p1,p2,...]\n"
        "          [--jobs N] [--json PATH] [--profile]\n"
        "          [--list-scenarios] [--list-media]\n",
        argv0);
    std::exit(2);
}

ServeBenchArgs
parseArgs(int argc, char **argv)
{
    ServeBenchArgs a;
    a.bench.ops = 10000; // serving runs want volume, not 200 ops
    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--scenario"))
            a.scenarios = need(i), ++i;
        else if (!std::strcmp(arg, "--models"))
            a.models = need(i), ++i;
        else if (!std::strcmp(arg, "--cores"))
            a.cores = unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (!std::strcmp(arg, "--mcs"))
            a.mcs = unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (!std::strcmp(arg, "--keyspace"))
            a.keySpace = unsigned(std::strtoul(need(i), nullptr, 0)),
            ++i;
        else if (!std::strcmp(arg, "--update-pct"))
            a.updatePct = unsigned(std::strtoul(need(i), nullptr, 0)),
            ++i;
        else if (!std::strcmp(arg, "--media-per-mc"))
            a.mediaPerMc = need(i), ++i;
        else if (!std::strcmp(arg, "--list-scenarios")) {
            for (const ServeScenario &sc : allServeScenarios())
                std::printf("%-18s %s\n", sc.workloadName().c_str(),
                            sc.description.c_str());
            std::exit(0);
        } else if (!std::strcmp(arg, "--workload") ||
                   !std::strcmp(arg, "--list-workloads"))
            usage(argv[0]); // the workload axis is --scenario
        else if (!a.bench.parseFlag(argc, argv, i))
            usage(argv[0]);
    }
    for (const std::string &p : splitList(a.mediaPerMc)) {
        if (!isMediaProfile(p)) {
            std::fprintf(stderr, "error: unknown per-MC media "
                         "profile '%s' (try --list-media)\n",
                         p.c_str());
            std::exit(2);
        }
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const ServeBenchArgs a = parseArgs(argc, argv);

    std::vector<std::string> scenarios;
    if (a.scenarios.empty()) {
        for (const ServeScenario &sc : allServeScenarios())
            scenarios.push_back(sc.workloadName());
    } else {
        for (const std::string &s : splitList(a.scenarios)) {
            const ServeScenario *sc = tryFindServeScenario(s);
            if (!sc) {
                std::fprintf(stderr, "error: unknown scenario '%s' "
                             "(try --list-scenarios)\n", s.c_str());
                std::exit(2);
            }
            scenarios.push_back(sc->workloadName());
        }
    }
    const std::vector<ModelPair> models = parseModels(a.models);

    SimConfig base = a.bench.baseConfig();
    base.numCores = a.cores;
    if (a.mcs)
        base.numMCs = a.mcs;
    base.mediaPerMc = a.mediaPerMc;
    WorkloadParams params = a.bench.params();
    if (a.keySpace)
        params.keySpace = a.keySpace;
    if (a.updatePct <= 100)
        params.updatePct = a.updatePct;

    // Scenario-major, models innermost — same expansion order the
    // table below walks.
    std::vector<ExperimentJob> jobs;
    for (const std::string &sc : scenarios) {
        for (const ModelPair &mk : models) {
            ExperimentJob j;
            j.workload = sc;
            j.cfg = base;
            j.cfg.model = mk.first;
            j.cfg.persistency = mk.second;
            j.params = params;
            jobs.push_back(std::move(j));
        }
    }
    const SweepResult sr = runJobs(std::move(jobs), a.bench.options());

    auto ns = [](std::uint64_t ticks) {
        return double(ticks) / clockGHz;
    };
    std::printf("=== Serving scenarios: %zu scenarios x %zu models "
                "(%u cores, %u ops/thread) ===\n",
                scenarios.size(), models.size(), a.cores,
                a.bench.ops);
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        std::printf("\n--- %s ---\n", scenarios[s].c_str());
        std::printf("%-12s %12s %10s %8s  persist-latency (ns)\n", "",
                    "", "", "");
        std::printf("%-12s %12s %10s %8s %8s %8s %8s %9s\n",
                    "model", "runTicks", "requests", "Mreq/s", "p50",
                    "p99", "p999", "max");
        for (std::size_t k = 0; k < models.size(); ++k) {
            const RunResult &r = sr.at(s * models.size() + k);
            const std::string label = toString(models[k].first) +
                                      "_" +
                                      toString(models[k].second);
            const double seconds =
                double(r.runTicks) / (clockGHz * 1e9);
            const double mreqs =
                seconds > 0
                    ? double(r.serveRequests) / seconds / 1e6
                    : 0.0;
            std::printf("%-12s %12llu %10llu %8.3f %8.0f %8.0f "
                        "%8.0f %9.0f\n",
                        label.c_str(),
                        (unsigned long long)r.runTicks,
                        (unsigned long long)r.serveRequests, mreqs,
                        ns(r.persistP50), ns(r.persistP99),
                        ns(r.persistP999), ns(r.persistMax));
        }
    }
    finishSweep(a.bench, sr);

    // Peak RSS on stderr: the constant-memory claim, checkable by
    // scripts/check.sh (Linux ru_maxrss is in kilobytes).
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        std::fprintf(stderr, "[rss] peak %ld KB\n", ru.ru_maxrss);
    return 0;
}
