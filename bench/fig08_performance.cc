/**
 * @file
 * Figure 8: speedup over the Intel baseline for HOPS_EP, HOPS_RP,
 * ASAP_EP, ASAP_RP and eADR/BBB on a 4-core, 2-MC system.
 *
 * Expected shape (paper): ASAP_RP ~2.3x over baseline on average,
 * ~23% over HOPS_RP, within ~4% of eADR/BBB; HOPS_EP drops below
 * baseline for the concurrent structures (queue, CCEH, Dash, P-ART)
 * because polling makes cross-dependency resolution slow.
 */

#include "bench/bench_util.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const BenchArgs args = BenchArgs::parse(argc, argv);

    struct ModelCol
    {
        const char *label;
        ModelKind kind;
        PersistencyModel pm;
    };
    const ModelCol cols[] = {
        {"HOPS_EP", ModelKind::Hops, PersistencyModel::Epoch},
        {"HOPS_RP", ModelKind::Hops, PersistencyModel::Release},
        {"ASAP_EP", ModelKind::Asap, PersistencyModel::Epoch},
        {"ASAP_RP", ModelKind::Asap, PersistencyModel::Release},
        {"eADR/BBB", ModelKind::Eadr, PersistencyModel::Release},
    };

    // One baseline + five model columns per workload; the engine
    // dedups any repeats and runs everything in parallel.
    const std::vector<std::string> names = args.workloads();
    JobSet set;
    auto addJob = [&](const std::string &name, ModelKind kind,
                      PersistencyModel pm) {
        SimConfig cfg = args.baseConfig();
        cfg.model = kind;
        cfg.persistency = pm;
        cfg.numCores = 4;
        return set.add(name, cfg, args.params());
    };
    std::vector<std::size_t> baseIdx;
    std::vector<std::vector<std::size_t>> colIdx(std::size(cols));
    for (const std::string &name : names) {
        baseIdx.push_back(addJob(name, ModelKind::Baseline,
                                 PersistencyModel::Release));
        for (std::size_t i = 0; i < std::size(cols); ++i) {
            colIdx[i].push_back(addJob(name, cols[i].kind, cols[i].pm));
        }
    }
    const SweepResult sr = runJobs(set.jobs(), args.options());

    std::printf("=== Figure 8: speedup over baseline "
                "(4 cores, 2 MCs) ===\n");
    std::printf("%-12s", "workload");
    for (const ModelCol &c : cols)
        std::printf(" %9s", c.label);
    std::printf("\n");

    std::vector<std::vector<double>> speedups(std::size(cols));
    for (std::size_t w = 0; w < names.size(); ++w) {
        const RunResult &base = sr.at(baseIdx[w]);
        std::printf("%-12s", names[w].c_str());
        for (std::size_t i = 0; i < std::size(cols); ++i) {
            const RunResult &r = sr.at(colIdx[i][w]);
            const double s = static_cast<double>(base.runTicks) /
                             static_cast<double>(r.runTicks);
            speedups[i].push_back(s);
            std::printf(" %9.2f", s);
        }
        std::printf("\n");
    }

    std::printf("%-12s", "gmean");
    for (std::size_t i = 0; i < std::size(cols); ++i)
        std::printf(" %9.2f", gmean(speedups[i]));
    std::printf("\n(paper gmean: HOPS_RP ~1.86, ASAP_EP ~2.10, "
                "ASAP_RP ~2.29, eADR ~2.38 over baseline)\n");
    finishSweep(args, sr);
    return 0;
}
