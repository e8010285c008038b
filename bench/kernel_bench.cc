/**
 * @file
 * Event-kernel throughput bench.
 *
 * Measures host-side simulation speed (kernel events per second), not
 * simulated behaviour: each model x workload pair is simulated
 * directly --reps times (no result cache, no trace tier) and the best
 * repetition is reported, plus a synthetic "kernel-chain" row that
 * exercises nothing but EventQueue::scheduleAfter/run to isolate the
 * kernel's own overhead from model code.
 *
 * Everything here is wall-clock derived and therefore
 * non-deterministic; the table goes to stdout and the artifact
 * (default BENCH_kernel.json) is a perf record, unlike the figure
 * benches whose stdout must be byte-stable.
 *
 *   --ops N             operations per thread (default 400)
 *   --reps N            repetitions per pair, best-of (default 5)
 *   --workload W        restrict to one workload (default: cceh,dash-lh,queue)
 *   --json PATH         artifact path (default BENCH_kernel.json; "" = none)
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

using namespace asap;

namespace
{

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Row
{
    std::string workload;
    std::string model;
    std::uint64_t events = 0;
    double bestNs = 0.0;

    double
    eventsPerSec() const
    {
        return bestNs > 0 ? events * 1e9 / bestNs : 0.0;
    }
};

/** Raw kernel overhead: chains of self-rescheduling no-op events. */
Row
kernelChainRow(unsigned reps)
{
    constexpr unsigned chains = 64;
    constexpr std::uint64_t eventsPerChain = 20000;
    Row row;
    row.workload = "kernel-chain";
    row.model = "-";
    for (unsigned r = 0; r < reps; ++r) {
        EventQueue eq;
        struct Chain
        {
            EventQueue *eq;
            std::uint64_t left;
            void
            step()
            {
                if (--left == 0)
                    return;
                eq->scheduleAfter(1, [this]() { step(); });
            }
        };
        std::vector<Chain> cs(chains);
        for (unsigned c = 0; c < chains; ++c) {
            cs[c] = Chain{&eq, eventsPerChain};
            // Stagger starts so the heap holds all chains at once.
            eq.scheduleAfter(1 + c, [&cs, c]() { cs[c].step(); });
        }
        const double t0 = nowNs();
        eq.run();
        const double ns = nowNs() - t0;
        if (row.bestNs == 0.0 || ns < row.bestNs)
            row.bestNs = ns;
        row.events = eq.executed();
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    unsigned ops = 400;
    unsigned reps = 5;
    std::string only;
    std::string jsonPath = "BENCH_kernel.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--ops") && i + 1 < argc) {
            ops = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (!std::strcmp(argv[i], "--workload") && i + 1 < argc) {
            only = argv[++i];
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--ops N] [--reps N] "
                         "[--workload W] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (reps == 0)
        reps = 1;

    const std::vector<std::pair<ModelKind, PersistencyModel>> models = {
        {ModelKind::Baseline, PersistencyModel::Epoch},
        {ModelKind::Hops, PersistencyModel::Release},
        {ModelKind::Asap, PersistencyModel::Release},
        {ModelKind::Eadr, PersistencyModel::Release},
    };
    std::vector<std::string> workloads;
    if (!only.empty())
        workloads.push_back(only);
    else
        workloads = {"cceh", "dash-lh", "queue"};

    std::vector<Row> rows;
    for (const std::string &w : workloads) {
        WorkloadParams p;
        p.opsPerThread = ops;
        const TraceSet trace = buildTrace(w, 4, p);
        for (const auto &[kind, pm] : models) {
            Row row;
            row.workload = w;
            row.model = toString(kind);
            for (unsigned r = 0; r < reps; ++r) {
                SimConfig cfg;
                cfg.model = kind;
                cfg.persistency = pm;
                // Four MCs, as in every earlier record of this bench.
                cfg.numMCs = 4;
                System sys(cfg);
                sys.loadTrace(trace);
                const double t0 = nowNs();
                sys.run();
                const double ns = nowNs() - t0;
                if (row.bestNs == 0.0 || ns < row.bestNs)
                    row.bestNs = ns;
                row.events = sys.eventQueue().executed();
            }
            rows.push_back(row);
        }
    }
    rows.push_back(kernelChainRow(reps));

    std::printf("=== Event-kernel throughput (best of %u reps, "
                "--ops %u) ===\n", reps, ops);
    std::printf("%-12s %-9s %10s %10s %9s\n", "workload", "model",
                "events", "hostMs", "Mev/s");
    for (const Row &r : rows) {
        std::printf("%-12s %-9s %10llu %10.2f %9.2f\n",
                    r.workload.c_str(), r.model.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.bestNs / 1e6, r.eventsPerSec() / 1e6);
    }

    if (!jsonPath.empty()) {
        std::ofstream os(jsonPath);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        os << "{ \"bench\": \"kernel\", \"ops\": " << ops
           << ", \"reps\": " << reps << ", \"rows\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            os << "  { \"workload\": \"" << r.workload
               << "\", \"model\": \"" << r.model
               << "\", \"events\": " << r.events
               << ", \"bestNs\": " << static_cast<std::uint64_t>(r.bestNs)
               << ", \"eventsPerSec\": "
               << static_cast<std::uint64_t>(r.eventsPerSec()) << " }"
               << (i + 1 < rows.size() ? "," : "") << '\n';
        }
        os << "] }\n";
    }
    return 0;
}
