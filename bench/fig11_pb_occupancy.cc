/**
 * @file
 * Figure 11: persist-buffer occupancy, average and 99th percentile
 * (time-weighted), HOPS vs ASAP with release persistency.
 *
 * Expected shape (paper): ASAP's occupancy is much lower than HOPS's
 * on both metrics — eager flushing drains the buffer — implying a
 * smaller PB would perform the same.
 */

#include "bench/bench_util.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const BenchArgs args = BenchArgs::parse(argc, argv);

    SweepSpec spec;
    spec.workloads = args.workloads();
    spec.models = {{ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {4};
    spec.params = args.params();
    spec.base = args.baseConfig();
    const SweepResult sr = runSweep(spec, args.options());

    std::printf("=== Figure 11: PB occupancy avg / p99 "
                "(RP, 4 cores, 32-entry PB) ===\n");
    std::printf("%-12s %12s %10s %12s %10s\n", "workload", "HOPS-avg",
                "HOPS-p99", "ASAP-avg", "ASAP-p99");
    std::vector<double> hMeans, aMeans;
    for (const std::string &name : spec.workloads) {
        const RunResult &h = *sr.find(name, ModelKind::Hops,
                                      PersistencyModel::Release, 4);
        const RunResult &a = *sr.find(name, ModelKind::Asap,
                                      PersistencyModel::Release, 4);
        hMeans.push_back(h.pbOccMean);
        aMeans.push_back(a.pbOccMean);
        std::printf("%-12s %12.2f %10llu %12.2f %10llu\n",
                    name.c_str(), h.pbOccMean,
                    static_cast<unsigned long long>(h.pbOccP99),
                    a.pbOccMean,
                    static_cast<unsigned long long>(a.pbOccP99));
    }
    std::printf("%-12s %12.2f %10s %12.2f %10s\n", "average",
                amean(hMeans), "", amean(aMeans), "");
    std::printf("(paper: ASAP well below HOPS on both average and "
                "p99)\n");
    finishSweep(args, sr);
    return 0;
}
