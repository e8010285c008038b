/**
 * @file
 * asap_run: command-line simulation driver (the library's equivalent
 * of the artifact's run.sh + gem5 invocation).
 *
 * Usage:
 *   asap_run <workload> [key=value ...]
 *
 * Accepted keys: every SimConfig knob (model=, persistency=,
 * numCores=, rtEntries=, ...) plus ops=<N> and updatePct=<P> for the
 * workload, and saveTrace=<path> / loadTrace=<path> to record once
 * and replay across models. Prints the full gem5-style stats dump
 * (Table VI names included).
 *
 * Examples:
 *   asap_run cceh model=asap persistency=rp numCores=8
 *   asap_run nstore model=hops ops=500
 *   asap_run serve:kv-zipf model=asap numCores=4 ops=5000
 *   asap_run cceh saveTrace=/tmp/cceh.trace
 *   asap_run cceh loadTrace=/tmp/cceh.trace model=baseline
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "harness/system.hh"
#include "pm/recorder.hh"
#include "pm/trace_io.hh"
#include "serve/op_stream.hh"
#include "serve/scenario.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <workload> [key=value ...]\n\n",
                     argv[0]);
        std::fprintf(stderr, "workloads:\n");
        for (const WorkloadInfo &w : allWorkloads()) {
            std::fprintf(stderr, "  %-12s %s\n", w.name.c_str(),
                         w.description.c_str());
        }
        return 2;
    }

    SimConfig cfg;
    WorkloadParams params;
    params.opsPerThread = 200;
    std::string save_path, load_path;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("ops=", 0) == 0) {
            fatal_if(!tryParseUnsigned(arg.substr(4), params.opsPerThread),
                     "ops= wants an unsigned integer, not '",
                     arg.substr(4), "'");
        } else if (arg.rfind("updatePct=", 0) == 0) {
            fatal_if(!tryParseUnsigned(arg.substr(10), params.updatePct),
                     "updatePct= wants an unsigned integer, not '",
                     arg.substr(10), "'");
        } else if (arg.rfind("saveTrace=", 0) == 0) {
            save_path = arg.substr(10);
        } else if (arg.rfind("loadTrace=", 0) == 0) {
            load_path = arg.substr(10);
        } else {
            cfg.override(arg);
        }
    }
    params.seed = cfg.seed;

    std::printf("workload=%s model=%s persistency=%s cores=%u mcs=%u "
                "ops=%u\n",
                argv[1], toString(cfg.model).c_str(),
                toString(cfg.persistency).c_str(), cfg.numCores,
                cfg.numMCs, params.opsPerThread);

    System sys(cfg);
    std::unique_ptr<ServeStream> stream;
    if (load_path.empty() && isServeWorkload(argv[1])) {
        // Serving scenarios generate ops on demand; only materialize
        // (under the recorder's op cap) when a trace file was asked
        // for, otherwise run the constant-memory streaming path.
        const ServeScenario &sc = findServeScenario(argv[1]);
        stream = std::make_unique<ServeStream>(sc, cfg.numCores, params);
        if (!save_path.empty()) {
            TraceSet traces =
                materializeStream(*stream, TraceRecorder::traceOpCap());
            saveTrace(traces, save_path);
            sys.loadTrace(std::move(traces));
        } else {
            sys.loadStream(*stream);
        }
    } else {
        TraceSet traces = load_path.empty()
                              ? buildTrace(argv[1], cfg.numCores, params)
                              : loadTrace(load_path);
        if (!save_path.empty())
            saveTrace(traces, save_path);
        sys.loadTrace(std::move(traces));
    }
    const bool ok = sys.run();
    std::printf("%s\n", sys.stats().dump().c_str());
    std::printf("sim.finished %d\n", ok ? 1 : 0);
    return ok ? 0 : 1;
}
