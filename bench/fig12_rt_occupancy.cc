/**
 * @file
 * Figure 12: recovery-table maximum occupancy at 4 and 8 threads
 * (ASAP, release persistency, 32-entry RT per controller).
 *
 * Expected shape (paper): max occupancy grows little from 4 to 8
 * threads; Nstore is the exception that fills the table and triggers
 * NACKs (which fall back to conservative flushing without hurting
 * performance below HOPS).
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
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {4, 8};
    spec.params = args.params();
    spec.base = args.baseConfig();
    const SweepResult sr = runSweep(spec, args.options());

    std::printf("=== Figure 12: RT max occupancy (ASAP RP) ===\n");
    std::printf("%-12s %10s %10s %10s %10s\n", "workload", "4thr",
                "8thr", "nacks4", "nacks8");
    for (const std::string &name : spec.workloads) {
        const RunResult &r4 = *sr.find(name, ModelKind::Asap,
                                       PersistencyModel::Release, 4);
        const RunResult &r8 = *sr.find(name, ModelKind::Asap,
                                       PersistencyModel::Release, 8);
        std::printf("%-12s %10llu %10llu %10llu %10llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(r4.rtMaxOccupancy),
                    static_cast<unsigned long long>(r8.rtMaxOccupancy),
                    static_cast<unsigned long long>(r4.nacks),
                    static_cast<unsigned long long>(r8.nacks));
    }
    std::printf("(paper: little growth from 4 to 8 threads; Nstore "
                "occasionally fills the RT)\n");
    finishSweep(args, sr);
    return 0;
}
