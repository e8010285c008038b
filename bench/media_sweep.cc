/**
 * @file
 * Media-profile sweep driver: does ASAP's win over HOPS/baseline
 * survive on other media?
 *
 * Runs the cross-product (media profile x model x workload) through
 * the experiment engine and prints, per profile, each workload's
 * runtime under every model, ASAP's speedups, and the media-side
 * story: bytes written, time lost to the bandwidth-cap queue, and
 * bank utilisation. The profile axis rides the cache key, so re-runs
 * dedup exactly like any other sweep.
 */

#include "bench/bench_util.hh"

using namespace asap;

namespace
{

struct MediaSweepArgs
{
    BenchArgs bench;                   //!< common flags (no --media)
    std::vector<std::string> profiles; //!< media axis (order kept)
    std::string models = "baseline_rp,hops_rp,asap_rp";
    unsigned cores = 4;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--ops N] [--seed S] [--workload W]\n"
        "          [--profiles p1,p2,...] [--models m1_pm1,...] "
        "[--cores N]\n"
        "          [--jobs N] [--json PATH] [--profile]\n"
        "          [--list-media] [--list-workloads]\n",
        argv0);
    std::exit(2);
}

MediaSweepArgs
parseArgs(int argc, char **argv)
{
    MediaSweepArgs a;
    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--profiles"))
            a.profiles = splitList(need(i)), ++i;
        else if (!std::strcmp(arg, "--models"))
            a.models = need(i), ++i;
        else if (!std::strcmp(arg, "--cores"))
            a.cores = unsigned(std::strtoul(need(i), nullptr, 0)), ++i;
        else if (!std::strcmp(arg, "--media"))
            usage(argv[0]); // the media axis is --profiles
        else if (!a.bench.parseFlag(argc, argv, i))
            usage(argv[0]);
    }
    if (a.profiles.empty()) {
        for (const MediaProfileInfo &m : allMediaProfiles())
            a.profiles.push_back(m.name);
    }
    for (const std::string &p : a.profiles) {
        if (!isMediaProfile(p)) {
            std::fprintf(stderr, "error: unknown media profile '%s' "
                         "(try --list-media)\n", p.c_str());
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
    const MediaSweepArgs a = parseArgs(argc, argv);

    SweepSpec spec;
    spec.workloads = a.bench.workloads();
    spec.mediaProfiles = a.profiles;
    spec.models = parseModels(a.models);
    spec.coreCounts = {a.cores};
    spec.params = a.bench.params();
    const SweepResult sr = runSweep(spec, a.bench.options());

    // Expansion order: workload-major, media next, models, cores
    // innermost (one core count here).
    const std::size_t nMedia = a.profiles.size();
    const std::size_t nModels = spec.models.size();
    auto at = [&](std::size_t w, std::size_t m, std::size_t k)
        -> const RunResult & {
        return sr.at((w * nMedia + m) * nModels + k);
    };
    // ASAP vs. the slowest of the other models present, typically the
    // baseline: the cross-media question is whether the win survives.
    std::size_t asapCol = nModels, refCol = nModels;
    for (std::size_t k = 0; k < nModels; ++k) {
        if (spec.models[k].first == ModelKind::Asap && asapCol == nModels)
            asapCol = k;
        if (spec.models[k].first != ModelKind::Asap)
            refCol = k;
    }
    for (std::size_t k = 0; k < nModels; ++k) {
        if (spec.models[k].first == ModelKind::Baseline)
            refCol = k;
    }

    std::printf("=== Media-profile sweep: %zu profiles x %zu models "
                "x %zu workloads (%u cores) ===\n",
                nMedia, nModels, spec.workloads.size(), a.cores);
    for (std::size_t m = 0; m < nMedia; ++m) {
        const std::string &profile = a.profiles[m];
        // Bank count for the utilisation column: profile defaults
        // under the sweep's base config (per MC).
        SimConfig pcfg = spec.base;
        pcfg.mediaProfile = profile;
        const MediaParams mp = resolveMediaParams(pcfg);

        char cap[48] = "";
        if (mp.writeGBps > 0)
            std::snprintf(cap, sizeof cap, ", %g GB/s cap",
                          mp.writeGBps);
        std::printf("\n--- media %s (read %llu / write %llu cycles, "
                    "%u banks/MC%s) ---\n", profile.c_str(),
                    (unsigned long long)mp.readLatency,
                    (unsigned long long)mp.writeLatency, mp.banks,
                    cap);
        std::printf("%-12s", "workload");
        for (const ModelPair &mk : spec.models)
            std::printf(" %11s",
                        (toString(mk.first) + "_" +
                         toString(mk.second)).c_str());
        std::printf(" %8s %9s %7s %8s\n", "speedup", "mediaMB",
                    "qdel%", "bankUtil");

        std::vector<double> speedups;
        for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
            std::printf("%-12s", spec.workloads[w].c_str());
            for (std::size_t k = 0; k < nModels; ++k)
                std::printf(" %11llu",
                            (unsigned long long)at(w, m, k).runTicks);
            double speedup = 0.0;
            if (asapCol < nModels && refCol < nModels &&
                refCol != asapCol) {
                speedup =
                    double(at(w, m, refCol).runTicks) /
                    double(at(w, m, asapCol).runTicks);
                speedups.push_back(speedup);
            }
            // Media columns describe the ASAP run (or the first model
            // when ASAP is not in the sweep).
            const RunResult &r =
                at(w, m, asapCol < nModels ? asapCol : 0);
            // Normalise against total bank-time across all MCs.
            const double bankTime =
                double(r.runTicks) * mp.banks * pcfg.numMCs;
            const double mb = double(r.mediaBytesWritten) / 1e6;
            const double qdel =
                bankTime > 0
                    ? 100.0 * double(r.mediaQueueDelayTicks) / bankTime
                    : 0.0;
            const double util =
                bankTime > 0
                    ? double(r.mediaBankBusyTicks) / bankTime
                    : 0.0;
            std::printf(" %8.2f %9.3f %6.1f%% %8.3f\n", speedup, mb,
                        qdel, util);
        }
        if (!speedups.empty())
            std::printf("%-12s gmean speedup %.2f\n", "",
                        gmean(speedups));
    }
    finishSweep(a.bench, sr);
    return 0;
}
