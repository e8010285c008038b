/**
 * @file
 * Figure 10: core-count sensitivity (1/2/4/8 threads, 2 MCs fixed),
 * ASAP vs HOPS under release persistency. Shows the paper's best
 * scaler (P-ART), worst scaler (skiplist) and the all-workload mean,
 * all normalised to HOPS at 1 thread.
 *
 * Expected shape (paper): ASAP 1.18x over HOPS at one thread (eager
 * flushing uses both MCs) and scaling to ~2.85x vs HOPS's 2.15x at 8
 * threads — HOPS falls off as cross-thread dependencies multiply.
 */

#include "bench/bench_util.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const BenchArgs args = BenchArgs::parse(argc, argv);
    const std::vector<unsigned> coreCounts = {1, 2, 4, 8};

    const std::vector<std::string> names = args.workload.empty()
        ? std::vector<std::string>{"p-art", "skiplist"}
        : std::vector<std::string>{args.workload};

    // Everything this figure needs, as one deduplicated parallel
    // sweep: the headline scalers plus (for the average rows) every
    // workload, each under HOPS and ASAP at every core count.
    SweepSpec spec;
    spec.workloads = names;
    if (args.workload.empty()) {
        for (const WorkloadInfo &w : allWorkloads()) {
            bool dup = false;
            for (const std::string &n : spec.workloads)
                dup = dup || n == w.name;
            if (!dup)
                spec.workloads.push_back(w.name);
        }
    }
    spec.models = {{ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = coreCounts;
    spec.params = args.params();
    spec.base = args.baseConfig();
    const SweepResult sr = runSweep(spec, args.options());

    // Normalised throughput: ops scale with threads, so
    // throughput = cores / runTicks (ops per thread fixed).
    auto throughput = [&](const std::string &w, ModelKind m,
                          unsigned cores) {
        const RunResult &r =
            *sr.find(w, m, PersistencyModel::Release, cores);
        return static_cast<double>(cores) /
               static_cast<double>(r.runTicks);
    };

    std::printf("=== Figure 10: scalability over cores "
                "(normalised to HOPS @1 thread) ===\n");
    std::printf("%-12s %-6s", "workload", "model");
    for (unsigned c : coreCounts)
        std::printf(" %7u", c);
    std::printf("\n");

    std::vector<std::vector<double>> asapSpeed(4), hopsSpeed(4);
    for (const std::string &name : names) {
        const double hops1 = throughput(name, ModelKind::Hops, 1);
        std::printf("%-12s %-6s", name.c_str(), "HOPS");
        for (std::size_t i = 0; i < coreCounts.size(); ++i) {
            const double s =
                throughput(name, ModelKind::Hops, coreCounts[i]) /
                hops1;
            hopsSpeed[i].push_back(s);
            std::printf(" %7.2f", s);
        }
        std::printf("\n%-12s %-6s", "", "ASAP");
        for (std::size_t i = 0; i < coreCounts.size(); ++i) {
            const double s =
                throughput(name, ModelKind::Asap, coreCounts[i]) /
                hops1;
            asapSpeed[i].push_back(s);
            std::printf(" %7.2f", s);
        }
        std::printf("\n");
    }

    if (args.workload.empty()) {
        // All-workload average rows.
        for (const WorkloadInfo &w : allWorkloads()) {
            const double hops1 =
                throughput(w.name, ModelKind::Hops, 1);
            for (std::size_t i = 0; i < coreCounts.size(); ++i) {
                hopsSpeed[i].push_back(
                    throughput(w.name, ModelKind::Hops,
                               coreCounts[i]) / hops1);
                asapSpeed[i].push_back(
                    throughput(w.name, ModelKind::Asap,
                               coreCounts[i]) / hops1);
            }
        }
        std::printf("%-12s %-6s", "average", "HOPS");
        for (std::size_t i = 0; i < coreCounts.size(); ++i)
            std::printf(" %7.2f", gmean(hopsSpeed[i]));
        std::printf("\n%-12s %-6s", "", "ASAP");
        for (std::size_t i = 0; i < coreCounts.size(); ++i)
            std::printf(" %7.2f", gmean(asapSpeed[i]));
        std::printf("\n(paper avg: ASAP 1.18/1.79/2.51/2.85 vs HOPS "
                    "1.00/1.36/1.94/2.15)\n");
    }
    finishSweep(args, sr);
    return 0;
}
