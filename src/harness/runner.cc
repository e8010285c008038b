#include "harness/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "harness/system.hh"
#include "permute/permute.hh"
#include "pm/trace_io.hh"
#include "recovery/checker.hh"
#include "serve/op_stream.hh"
#include "sim/code_salt.hh"
#include "sim/hash.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

namespace asap
{

namespace
{

/** Monotonic nanoseconds (host profiling). */
std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::atomic<std::uint64_t> profTraceGenNs{0};
std::atomic<std::uint64_t> profTraceLoadNs{0};
std::atomic<std::uint64_t> profSimulateNs{0};
std::atomic<std::uint64_t> profCheckNs{0};
std::atomic<std::uint64_t> profSimRuns{0};

/** Record the trace a job replays (microbenches are not registry
 *  workloads, so they are special-cased here). */
TraceSet
buildJobTrace(const std::string &workload, const SimConfig &cfg,
              const WorkloadParams &p)
{
    if (workload == "bandwidth") {
        TraceRecorder rec(cfg.numCores, p.seed);
        genBandwidthMicrobench(rec, p.opsPerThread);
        return rec.finish();
    }
    if (workload == "handoff") {
        TraceRecorder rec(cfg.numCores, p.seed);
        genHandoffMicrobench(rec, p.opsPerThread);
        return rec.finish();
    }
    if (isServeWorkload(workload)) {
        // Serving scenarios exist for streaming, but materializing
        // them keeps record/replay and crash experiments working on
        // small request counts. Purity guarantees the materialized
        // trace replays byte-identically to the stream.
        const ServeScenario &sc = findServeScenario(workload);
        ServeStream stream(sc, cfg.numCores, p);
        return materializeStream(stream, TraceRecorder::traceOpCap());
    }
    return buildTrace(workload, cfg.numCores, p);
}

/**
 * Trace memoisation. Generation depends only on (workload, cores,
 * WorkloadParams) — a strict subset of the result-cache key — so the
 * five model variants of a figure column and the hundreds of crash
 * ticks of a campaign config all replay one recorded trace. Entries
 * carry their own mutex: the first thread to want a trace generates
 * it while later threads block on that entry only, not the map.
 */
struct TraceCacheEntry
{
    std::mutex mu;
    bool ready = false;
    TraceSet trace;
};

std::mutex traceMapMu;
std::unordered_map<std::string, std::shared_ptr<TraceCacheEntry>>
    traceMap;
std::atomic<std::uint64_t> traceHits{0};
std::atomic<std::uint64_t> traceMisses{0};
std::atomic<std::uint64_t> traceDiskHits{0};

std::mutex traceDirMu;
std::string traceDir;
bool traceDirSet = false;

void
prepareTraceDir(const std::string &dir)
{
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        warn("trace cache: cannot create '", dir, "': ", ec.message());
}

/** File the disk tier stores a given generation key under. The name
 *  is only a rendezvous — the key embedded in the file is what
 *  actually authenticates it on load. */
std::string
traceDiskPath(const std::string &dir, const std::string &key)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(stableHash64(key)));
    return dir + "/trace-" + hex + ".bin";
}

/** Generation key: every input of trace generation, plus the code
 *  salt so that a file recorded by an older generator never loads. */
std::string
traceKey(const std::string &workload, unsigned cores,
         const WorkloadParams &p)
{
    std::ostringstream os;
    os << workload << '|' << cores << '|' << p.opsPerThread << '|'
       << p.keySpace << '|' << p.valueBytes << '|' << p.updatePct
       << '|' << p.seed << '|' << kCodeSalt;
    return os.str();
}

TraceSet
obtainJobTrace(const std::string &workload, const SimConfig &cfg,
               const WorkloadParams &p)
{
    const std::string key = traceKey(workload, cfg.numCores, p);
    std::shared_ptr<TraceCacheEntry> entry;
    {
        std::lock_guard<std::mutex> lock(traceMapMu);
        auto &slot = traceMap[key];
        if (!slot)
            slot = std::make_shared<TraceCacheEntry>();
        entry = slot;
    }
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->ready) {
        traceHits.fetch_add(1, std::memory_order_relaxed);
        return entry->trace;
    }

    // Disk tier: another process (or an earlier run) may have left
    // the trace under ASAP_TRACE_DIR. A file that fails verification
    // is not an error — log why and fall through to regeneration,
    // which overwrites it with a good copy.
    const std::string dir = traceDirectory();
    std::string path;
    if (!dir.empty()) {
        path = traceDiskPath(dir, key);
        std::string why;
        const std::uint64_t t0 = hostNowNs();
        if (tryLoadTraceForKey(path, key, entry->trace, &why)) {
            profTraceLoadNs.fetch_add(hostNowNs() - t0,
                                      std::memory_order_relaxed);
            entry->ready = true;
            traceDiskHits.fetch_add(1, std::memory_order_relaxed);
            return entry->trace;
        }
        if (why != "cannot read file")
            warn("trace cache: regenerating '", path, "': ", why);
    }

    const std::uint64_t t0 = hostNowNs();
    entry->trace = buildJobTrace(workload, cfg, p);
    profTraceGenNs.fetch_add(hostNowNs() - t0,
                             std::memory_order_relaxed);
    entry->ready = true;
    traceMisses.fetch_add(1, std::memory_order_relaxed);
    if (!path.empty())
        saveTraceAtomic(entry->trace, path, key);
    return entry->trace;
}

/** Extract the Table VI stat bundle from a finished (or crashed)
 *  system. */
RunResult
extractResult(System &sys, const std::string &workload,
              const SimConfig &cfg)
{
    StatSet &s = sys.stats();
    RunResult r;
    r.workload = workload;
    r.model = cfg.model;
    r.persistency = cfg.persistency;
    r.cores = cfg.numCores;
    r.media = cfg.mediaProfile;
    if (!cfg.mediaPerMc.empty()) {
        // Heterogeneous runs label the whole list. '+' instead of ','
        // keeps the label one whitespace-free, comma-free token (cache
        // entries are whitespace-delimited, CSV is comma-delimited).
        r.media = cfg.mediaPerMc;
        for (char &c : r.media) {
            if (c == ',')
                c = '+';
        }
    }
    for (const ResultField &f : kResultFields) {
        if (f.stat)
            r.*f.count = s.get(f.stat);
    }
    r.runTicks = sys.runTicks();
    if (s.hasDist("pb.occupancy")) {
        r.pbOccMean = s.dist("pb.occupancy").mean();
        r.pbOccP99 = s.dist("pb.occupancy").percentile(99.0);
    }
    {
        auto it = s.allLogHists().find("core.persistLatency");
        if (it != s.allLogHists().end()) {
            const LogHistogram &h = it->second;
            r.persistSamples = h.count();
            r.persistP50 = h.percentile(50.0);
            r.persistP99 = h.percentile(99.0);
            r.persistP999 = h.percentile(99.9);
            r.persistMax = h.max();
        }
    }
    return r;
}

/** Parse @p spec's names into permuter options (fatal on a bad one). */
permute::PermuteOptions
permuteOptions(const PermuteSpec &spec)
{
    permute::PermuteOptions opt;
    opt.bound = spec.bound == 0 ? 1 : spec.bound;
    opt.sampleSeed = spec.sampleSeed;
    fatal_if(!permute::parsePermuteFault(spec.fault, opt.fault),
             "unknown permute fault '", spec.fault, "' (valid: ",
             permute::permuteFaultNames(), ")");
    if (!spec.onlyState.empty()) {
        opt.haveOnlyMask = true;
        fatal_if(!permute::maskFromHex(spec.onlyState, opt.onlyMask),
                 "bad permute state mask '", spec.onlyState,
                 "' (expect hex, e.g. from a --repro line)");
    }
    fatal_if(!permute::parsePermuteEngine(spec.engine, opt.engine),
             "unknown permute engine '", spec.engine, "' (valid: ",
             permute::permuteEngineNames(), ")");
    opt.threads = spec.threads;
    return opt;
}

/** The live persist-path state at the instant of failure: record
 *  views and durable line values, which the canonical crash path that
 *  runs right after consumes (erases, drains, rewinds). Reads only. */
permute::PermuteSnapshot
harvestSnapshot(System &sys, const SimConfig &cfg)
{
    permute::PermuteSnapshot snap;
    for (unsigned i = 0; i < cfg.numMCs; ++i) {
        MemoryController &mc = sys.mc(i);
        permute::McSnapshot ms;
        ms.mc = i;
        if (const RecoveryPolicy *pol = mc.policy())
            pol->exportRecords(ms.undos, ms.delays);
        ms.wpqLines = mc.wpqSnapshot().size();
        for (const UndoRecordView &u : ms.undos)
            snap.durableAtCrash[u.line] = mc.durableValue(u.line);
        for (const DelayRecordView &d : ms.delays)
            snap.durableAtCrash.emplace(d.line, mc.durableValue(d.line));
        snap.mcs.push_back(std::move(ms));
    }
    for (std::uint16_t t = 0; t < cfg.numCores; ++t)
        for (std::uint64_t e : sys.model(t).commitInFlightEpochs())
            snap.inFlight.emplace_back(t, e);
    return snap;
}

} // namespace

void
ResultField::print(std::ostream &os, const RunResult &r) const
{
    if (count)
        os << r.*count;
    else
        os << r.*real;
}

void
ResultField::read(std::istream &is, RunResult &r) const
{
    if (count)
        is >> r.*count;
    else
        is >> r.*real;
}

TraceCacheStats
traceCacheStats()
{
    TraceCacheStats s;
    s.hits = traceHits.load(std::memory_order_relaxed);
    s.misses = traceMisses.load(std::memory_order_relaxed);
    s.diskHits = traceDiskHits.load(std::memory_order_relaxed);
    return s;
}

void
clearTraceCache()
{
    std::lock_guard<std::mutex> lock(traceMapMu);
    traceMap.clear();
    traceHits.store(0, std::memory_order_relaxed);
    traceMisses.store(0, std::memory_order_relaxed);
    traceDiskHits.store(0, std::memory_order_relaxed);
}

void
setTraceDirectory(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(traceDirMu);
    traceDir = dir;
    traceDirSet = true;
    prepareTraceDir(traceDir);
}

std::string
traceDirectory()
{
    std::lock_guard<std::mutex> lock(traceDirMu);
    if (!traceDirSet) {
        const char *env = std::getenv("ASAP_TRACE_DIR");
        traceDir = env ? env : "";
        traceDirSet = true;
        prepareTraceDir(traceDir);
    }
    return traceDir;
}

HostProfile
hostProfile()
{
    HostProfile hp;
    hp.traceGenNs = profTraceGenNs.load(std::memory_order_relaxed);
    hp.traceLoadNs = profTraceLoadNs.load(std::memory_order_relaxed);
    hp.simulateNs = profSimulateNs.load(std::memory_order_relaxed);
    hp.checkNs = profCheckNs.load(std::memory_order_relaxed);
    hp.simRuns = profSimRuns.load(std::memory_order_relaxed);
    return hp;
}

RunResult
runExperiment(const std::string &workload, const SimConfig &cfg,
              const WorkloadParams &p)
{
    System sys(cfg);
    // Streaming scenarios never materialize: cores pull ops out of the
    // generator as they retire, so RSS is bounded by the keyspace
    // footprint however many requests the run serves.
    std::unique_ptr<ServeStream> stream;
    if (isServeWorkload(workload)) {
        stream = std::make_unique<ServeStream>(findServeScenario(workload),
                                               cfg.numCores, p);
        sys.loadStream(*stream);
    } else {
        sys.loadTrace(obtainJobTrace(workload, cfg, p));
    }
    const std::uint64_t t0 = hostNowNs();
    const bool finished = sys.run();
    const std::uint64_t simNs = hostNowNs() - t0;
    if (!finished)
        warn("experiment ", workload, " did not finish");
    profSimulateNs.fetch_add(simNs, std::memory_order_relaxed);
    profSimRuns.fetch_add(1, std::memory_order_relaxed);
    RunResult r = extractResult(sys, workload, cfg);
    if (stream)
        r.serveRequests = stream->requestsGenerated();
    r.hostNs = simNs;
    return r;
}

RunResult
runExperiment(const std::string &workload, ModelKind model,
              PersistencyModel pm, unsigned cores,
              const WorkloadParams &p)
{
    SimConfig cfg;
    cfg.model = model;
    cfg.persistency = pm;
    cfg.numCores = cores;
    cfg.seed = p.seed;
    return runExperiment(workload, cfg, p);
}

std::vector<CrashRunResult>
runCrashPoint(const std::string &workload, const SimConfig &cfg,
              const WorkloadParams &p, Tick crash_tick,
              const std::vector<CrashCheck> &checks)
{
    // Parse every permute spec before simulating: a bad name is fatal.
    std::vector<permute::PermuteOptions> opts(checks.size());
    bool harvest = false;
    for (std::size_t k = 0; k < checks.size(); ++k) {
        if (checks[k]) {
            opts[k] = permuteOptions(*checks[k]);
            harvest = true;
        }
    }

    System sys(cfg, /*keep_run_log=*/true);
    sys.loadTrace(obtainJobTrace(workload, cfg, p));
    permute::PermuteSnapshot snap;
    const std::uint64_t t0 = hostNowNs();
    sys.crashAt(crash_tick, [&] {
        if (harvest)
            snap = harvestSnapshot(sys, cfg);
    });
    const std::uint64_t simNs = hostNowNs() - t0;
    profSimulateNs.fetch_add(simNs, std::memory_order_relaxed);
    profSimRuns.fetch_add(1, std::memory_order_relaxed);

    // What every check's result shares: the crashed run's stats and
    // the verdict fields that do not depend on the checker.
    CrashRunResult point;
    point.run = extractResult(sys, workload, cfg);
    point.run.hostNs = simNs;
    CrashVerdict &pv = point.verdict;
    pv.crashTick = crash_tick;
    pv.actualTick = sys.runTicks();
    pv.committedUpTo = sys.committedUpTo();
    pv.storesLogged = sys.runLog().allStores().size();
    sys.nvm().forEach([&pv](std::uint64_t, std::uint64_t value) {
        if (value != 0)
            ++pv.linesSurvived;
    });
    pv.undoReplayed = sys.stats().get("mc.undoRewindWrites");
    pv.adrDrainWrites = sys.stats().get("mc.adrDrainWrites");

    std::vector<CrashRunResult> out(checks.size(), point);
    for (std::size_t k = 0; k < checks.size(); ++k) {
        CrashVerdict &v = out[k].verdict;
        const std::uint64_t c0 = hostNowNs();
        if (!checks[k]) {
            // Through the shared index: a permute check of this point
            // (same log) reuses the build instead of re-indexing.
            const CheckResult check =
                sharedCheckerIndex(sys.runLog())
                    ->check(NvmView(sys.nvm()), v.committedUpTo);
            profCheckNs.fetch_add(hostNowNs() - c0,
                                  std::memory_order_relaxed);
            v.consistent = check.ok;
            v.message = check.message;
            continue;
        }
        const permute::PermuteReport rep = permute::permuteAndCheck(
            snap, opts[k], sys.nvm(), sys.runLog(), v.committedUpTo);
        const std::uint64_t checkNs = hostNowNs() - c0;
        profCheckNs.fetch_add(checkNs, std::memory_order_relaxed);
        v.permuteNs = checkNs;

        v.statesChecked = rep.statesChecked;
        v.statesReachable = rep.statesReachable;
        v.distinctStates = rep.distinctStates;
        v.permuteAtoms = rep.atoms;
        v.truncated = rep.truncated || rep.atomsTruncated;
        v.inconsistentStates = rep.inconsistentStates;
        v.consistent = rep.inconsistentStates == 0;
        if (rep.haveFirstBad) {
            v.firstBadState = permute::maskToHex(rep.firstBadMask);
            v.message = "state " + v.firstBadState + ": " +
                        rep.firstBadMessage;
        }
    }
    return out;
}

CrashRunResult
runCrashExperiment(const std::string &workload, const SimConfig &cfg,
                   const WorkloadParams &p, Tick crash_tick)
{
    return runCrashPoint(workload, cfg, p, crash_tick, {CrashCheck{}})[0];
}

CrashRunResult
runPermuteExperiment(const std::string &workload, const SimConfig &cfg,
                     const WorkloadParams &p, Tick crash_tick,
                     const PermuteSpec &spec)
{
    return runCrashPoint(workload, cfg, p, crash_tick, {spec})[0];
}

} // namespace asap
