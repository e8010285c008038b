/**
 * @file
 * Figure 13: system write-bandwidth utilisation microbenchmark.
 *
 * Each thread issues 256-byte writes alternating across the two
 * memory controllers, ordered with ofence between bursts (Section
 * VII-C). Expected shape (paper): ASAP achieves ~2x HOPS's bandwidth
 * because eager flushing overlaps the writes to both controllers.
 */

#include "bench/bench_util.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    BenchArgs args = BenchArgs::parse(argc, argv);
    if (!args.workload.empty()) {
        std::fprintf(stderr, "error: fig13 runs its own bandwidth "
                     "microbenchmark; --workload does not apply\n");
        return 2;
    }
    if (args.ops == 200)
        args.ops = 400; // bursts per thread

    struct Row
    {
        const char *label;
        ModelKind kind;
    };
    const Row rows[] = {
        {"baseline", ModelKind::Baseline},
        {"HOPS", ModelKind::Hops},
        {"ASAP", ModelKind::Asap},
    };

    // The experiment measures how well each design *utilises* system
    // write bandwidth, so the media must not be the limit:
    // interleaving gives Optane up to 5.6x the single-DIMM write
    // bandwidth (Section III / [38]); model that headroom with more
    // banks per controller.
    JobSet set;
    std::vector<std::size_t> rowIdx;
    for (const Row &row : rows) {
        SimConfig cfg = args.baseConfig();
        cfg.model = row.kind;
        cfg.persistency = PersistencyModel::Release;
        cfg.nvmBanks = 24;
        rowIdx.push_back(set.add("bandwidth", cfg, args.params()));
    }
    const SweepResult sr = runJobs(set.jobs(), args.options());

    std::printf("=== Figure 13: bandwidth utilisation "
                "(256B ofence-ordered bursts across 2 MCs) ===\n");
    std::printf("%-10s %12s %12s %10s\n", "model", "ticks", "GB/s",
                "vsHOPS");
    double hopsBw = 0;
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const RunResult &r = sr.at(rowIdx[i]);
        // One source of truth: the MCs' media byte counter. The
        // microbench writes distinct lines (no coalescing), so this
        // equals 4 threads x 256 B x ops exactly.
        const double bytes = static_cast<double>(r.mediaBytesWritten);
        const double secs = ticksToNs(r.runTicks) * 1e-9;
        const double gbps = bytes / secs / 1e9;
        if (rows[i].kind == ModelKind::Hops)
            hopsBw = gbps;
        std::printf("%-10s %12llu %12.3f %10.2f\n", rows[i].label,
                    static_cast<unsigned long long>(r.runTicks), gbps,
                    hopsBw > 0 ? gbps / hopsBw : 0.0);
    }
    std::printf("(paper: ASAP ~2x HOPS)\n");
    finishSweep(args, sr);
    return 0;
}
