/**
 * @file
 * Experiment runner: one call = one gem5-style simulation.
 *
 * Wraps trace generation + system construction + replay and returns
 * the stats the paper's figures are built from (Table VI names).
 */

#ifndef ASAP_HARNESS_RUNNER_HH
#define ASAP_HARNESS_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "workloads/params.hh"

namespace asap
{

/** Everything a figure needs from one simulation. */
struct RunResult
{
    std::string workload;
    ModelKind model = ModelKind::Asap;
    PersistencyModel persistency = PersistencyModel::Release;
    unsigned cores = 0;
    std::string media;               //!< media profile the run used

    std::uint64_t runTicks = 0;      //!< execution time (cycles)
    std::uint64_t pmWrites = 0;      //!< media writes (Figure 9)
    std::uint64_t pmReads = 0;       //!< media reads (undo misses)
    std::uint64_t cyclesBlocked = 0; //!< PB blocked cycles (Figure 3)
    std::uint64_t cyclesStalled = 0; //!< core stalls on full PB
    std::uint64_t dfenceStalled = 0; //!< dfence stall cycles
    std::uint64_t sfenceStalled = 0; //!< baseline sfence stall cycles
    std::uint64_t entriesInserted = 0; //!< PB enqueues
    std::uint64_t epochs = 0;          //!< epochs opened (Figure 2)
    std::uint64_t crossDeps = 0;       //!< interTEpochConflict (Fig. 2)
    std::uint64_t totSpecWrites = 0;   //!< early flushes
    std::uint64_t totalUndo = 0;       //!< undo records created
    std::uint64_t totalDelay = 0;      //!< delay records created
    std::uint64_t nacks = 0;           //!< RT NACKs
    std::uint64_t rtMaxOccupancy = 0;  //!< Figure 12
    double pbOccMean = 0.0;            //!< Figure 11
    std::uint64_t pbOccP99 = 0;        //!< Figure 11
    std::uint64_t wpqCoalesced = 0;
    std::uint64_t suppressedWrites = 0;
    std::uint64_t xpHits = 0;          //!< XPBuffer undo-read hits
    std::uint64_t xpMisses = 0;        //!< XPBuffer undo-read misses
    std::uint64_t mediaBytesWritten = 0;      //!< timed media writes
    std::uint64_t mediaQueueDelayTicks = 0;   //!< bandwidth-cap queueing
    std::uint64_t mediaBankBusyTicks = 0;     //!< summed bank occupancy

    /**
     * Persist-latency tail (serving observability): per-dfence
     * issue→completion tick deltas sampled into a log-bucketed
     * histogram by every core. Deterministic — pure functions of the
     * configuration — so they are cached and emitted like any other
     * stat (emitters surface them for serve:* jobs).
     */
    std::uint64_t persistSamples = 0; //!< dfences sampled
    std::uint64_t persistP50 = 0;     //!< median persist latency (ticks)
    std::uint64_t persistP99 = 0;     //!< p99 persist latency (ticks)
    std::uint64_t persistP999 = 0;    //!< p999 persist latency (ticks)
    std::uint64_t persistMax = 0;     //!< worst persist latency (ticks)
    /** Requests a streaming serve:* run generated (0 for materialized
     *  workloads); throughput = serveRequests / runTicks seconds. */
    std::uint64_t serveRequests = 0;

    /** Kernel events the run executed. Deterministic (a pure function
     *  of the configuration), so it is cached; artifacts omit it. */
    std::uint64_t eventsExecuted = 0;

    /** Host wall-clock nanoseconds the simulation took. Host-side
     *  only and non-deterministic: never serialized into caches and
     *  never emitted into artifacts (zero on cache-served results). */
    std::uint64_t hostNs = 0;

    /** Host throughput in events per second (0 when not measured). */
    double
    eventsPerSec() const
    {
        return hostNs == 0 ? 0.0
                           : static_cast<double>(eventsExecuted) *
                                 1e9 / static_cast<double>(hostNs);
    }

    /** Per-core cycles, for normalising blocked/stall percentages. */
    std::uint64_t totalCoreCycles() const { return runTicks * cores; }
};

/** Where a numeric RunResult field appears. Cache entries carry every
 *  field; JSON and CSV artifacts gate the groups so that sweeps
 *  without media or serve jobs keep their older schema. */
enum class ResultGroup
{
    All,   //!< every artifact
    Media, //!< artifacts of sweeps with a non-default media profile
    Serve, //!< artifacts of sweeps with serve:* jobs
    Cache, //!< cache entries only
};

/** One numeric RunResult field. */
struct ResultField
{
    const char *name; //!< cache-entry field and artifact column name
    ResultGroup group;
    std::uint64_t RunResult::*count; //!< the field (null for `real`)
    /** StatSet counter extractResult() copies (null: derived). */
    const char *stat = nullptr;
    double RunResult::*real = nullptr; //!< pbOccMean, the one double

    /** Write the field's value in @p r (cache and artifact format). */
    void print(std::ostream &os, const RunResult &r) const;

    /** Parse a value written by print() into @p r. */
    void read(std::istream &is, RunResult &r) const;
};

/**
 * Every numeric RunResult field, in cache-entry order; artifacts keep
 * this order among the fields they carry. hostNs is absent: host wall
 * time is non-deterministic, so it is never cached or emitted.
 */
inline constexpr ResultField kResultFields[] = {
    {"runTicks", ResultGroup::All, &RunResult::runTicks},
    {"pmWrites", ResultGroup::All, &RunResult::pmWrites, "mc.pmWrites"},
    {"pmReads", ResultGroup::All, &RunResult::pmReads, "mc.pmReads"},
    {"cyclesBlocked", ResultGroup::All, &RunResult::cyclesBlocked,
     "pb.cyclesBlocked"},
    {"cyclesStalled", ResultGroup::All, &RunResult::cyclesStalled,
     "pb.cyclesStalled"},
    {"dfenceStalled", ResultGroup::All, &RunResult::dfenceStalled,
     "core.dfenceStalled"},
    {"sfenceStalled", ResultGroup::All, &RunResult::sfenceStalled,
     "core.sfenceStalled"},
    {"entriesInserted", ResultGroup::All, &RunResult::entriesInserted,
     "pb.entriesInserted"},
    {"epochs", ResultGroup::All, &RunResult::epochs, "et.epochsOpened"},
    {"crossDeps", ResultGroup::All, &RunResult::crossDeps,
     "et.interTEpochConflict"},
    {"totSpecWrites", ResultGroup::All, &RunResult::totSpecWrites,
     "pb.totSpecWrites"},
    {"totalUndo", ResultGroup::All, &RunResult::totalUndo, "rt.totalUndo"},
    {"totalDelay", ResultGroup::All, &RunResult::totalDelay,
     "rt.totalDelay"},
    {"nacks", ResultGroup::All, &RunResult::nacks, "rt.nacks"},
    {"rtMaxOccupancy", ResultGroup::All, &RunResult::rtMaxOccupancy,
     "rt.maxOccupancy"},
    {"pbOccMean", ResultGroup::All, nullptr, nullptr,
     &RunResult::pbOccMean},
    {"pbOccP99", ResultGroup::All, &RunResult::pbOccP99},
    {"wpqCoalesced", ResultGroup::All, &RunResult::wpqCoalesced,
     "mc.wpqCoalesced"},
    {"suppressedWrites", ResultGroup::All, &RunResult::suppressedWrites,
     "mc.suppressedWrites"},
    {"xpHits", ResultGroup::Media, &RunResult::xpHits, "mc.xpHits"},
    {"xpMisses", ResultGroup::Media, &RunResult::xpMisses, "mc.xpMisses"},
    {"mediaBytesWritten", ResultGroup::Media,
     &RunResult::mediaBytesWritten, "mc.bytesWritten"},
    {"mediaQueueDelayTicks", ResultGroup::Media,
     &RunResult::mediaQueueDelayTicks, "mc.bwQueueDelayTicks"},
    {"mediaBankBusyTicks", ResultGroup::Media,
     &RunResult::mediaBankBusyTicks, "mc.bankBusyTicks"},
    {"eventsExecuted", ResultGroup::Cache, &RunResult::eventsExecuted,
     "sim.eventsExecuted"},
    // Persist-latency tail in ticks (cycles @2 GHz; divide by 2 for
    // nanoseconds) and request throughput.
    {"persistSamples", ResultGroup::Serve, &RunResult::persistSamples},
    {"persistP50", ResultGroup::Serve, &RunResult::persistP50},
    {"persistP99", ResultGroup::Serve, &RunResult::persistP99},
    {"persistP999", ResultGroup::Serve, &RunResult::persistP999},
    {"persistMax", ResultGroup::Serve, &RunResult::persistMax},
    {"serveRequests", ResultGroup::Serve, &RunResult::serveRequests},
};

/**
 * Hit/miss counters of the in-process trace memoisation: trace
 * generation is deterministic in (workload, cores, params), so jobs
 * sharing a configuration — every crash campaign, every multi-model
 * figure column — reuse one generated TraceSet instead of
 * regenerating it per simulation.
 */
struct TraceCacheStats
{
    std::uint64_t hits = 0;     //!< runs served a memoised trace
    std::uint64_t misses = 0;   //!< runs that generated the trace
    std::uint64_t diskHits = 0; //!< traces replayed from ASAP_TRACE_DIR
};

/** Snapshot of the process-wide trace-memoisation counters. */
TraceCacheStats traceCacheStats();

/** Drop memoised traces and zero the counters (tests). The disk-tier
 *  directory is left configured. */
void clearTraceCache();

/**
 * Point the on-disk trace tier at @p dir (created if missing; empty
 * disables the tier). Overrides the ASAP_TRACE_DIR environment
 * variable, which is read once on first use. The directory may be
 * shared by concurrent processes: files are written via temp +
 * rename and verified (version, embedded parameter key with the code
 * salt, checksum) on load, so a corrupt or stale file costs a
 * regeneration, never a wrong trace.
 */
void setTraceDirectory(const std::string &dir);

/** The active trace-tier directory (empty when disabled). */
std::string traceDirectory();

/**
 * Accumulated host-side wall time per runner phase, process-wide.
 * Benches print the breakdown under --profile; values only ever grow,
 * so a delta of two snapshots profiles a region.
 */
struct HostProfile
{
    std::uint64_t traceGenNs = 0;  //!< generating TraceSets
    std::uint64_t traceLoadNs = 0; //!< loading TraceSets from disk
    std::uint64_t simulateNs = 0;  //!< System::run / crashAt
    std::uint64_t checkNs = 0;     //!< recovery-consistency checking
    /** Simulations measured; a crash point counts once, however
     *  many checks share it. */
    std::uint64_t simRuns = 0;
};

/** Snapshot of the process-wide phase timers. */
HostProfile hostProfile();

/** Run one workload under one configuration. */
RunResult runExperiment(const std::string &workload,
                        const SimConfig &cfg, const WorkloadParams &p);

/** Convenience wrapper building the SimConfig from parts. */
RunResult runExperiment(const std::string &workload, ModelKind model,
                        PersistencyModel pm, unsigned cores,
                        const WorkloadParams &p);

/**
 * Outcome of one crash-injection experiment: did the post-crash NVM
 * state satisfy the Section VI consistency predicate, and against
 * which committed-epoch frontier was it checked.
 */
struct CrashVerdict
{
    bool consistent = true;
    std::string message;  //!< first violation found (empty when ok)

    Tick crashTick = 0;   //!< requested power-failure tick
    Tick actualTick = 0;  //!< tick the system actually stopped at

    /** Per-thread newest epoch the hardware had committed at the
     *  crash (the dependency-closed frontier the checker verified). */
    std::vector<std::uint64_t> committedUpTo;

    std::uint64_t storesLogged = 0;     //!< PM stores the run retired
    std::uint64_t linesSurvived = 0;    //!< NVM lines holding a token
    std::uint64_t undoReplayed = 0;     //!< undo records rewound at crash
    std::uint64_t adrDrainWrites = 0;   //!< WPQ entries ADR drained

    /**
     * Crash-state permuter coverage (JobKind::Permute only; all zero
     * for plain crash jobs). statesChecked == statesReachable means
     * the tick was covered exhaustively; truncated flags sampling.
     */
    std::uint64_t statesChecked = 0;
    std::uint64_t statesReachable = 0;
    std::uint64_t distinctStates = 0;   //!< unique NVM images
    std::uint64_t permuteAtoms = 0;     //!< orderable crash-time actions
    bool truncated = false;             //!< sampled, not exhaustive
    std::uint64_t inconsistentStates = 0;
    /** Hex mask of the first inconsistent state (empty when none);
     *  feed back via --state for a single-state repro. */
    std::string firstBadState;

    /** Host wall-clock nanoseconds the permute check loop took.
     *  Host-side like RunResult::hostNs: never serialized into caches
     *  and never emitted into deterministic artifacts (zero on
     *  cache-served results). statesChecked / permuteNs seconds is
     *  the engine's states/sec. */
    std::uint64_t permuteNs = 0;

    explicit operator bool() const { return consistent; }
};

/** A crashed run: stats up to the failure, plus the checker verdict. */
struct CrashRunResult
{
    RunResult run;
    CrashVerdict verdict;
};

/** Knobs for one crash-state permutation experiment. */
struct PermuteSpec
{
    /** Max states to check (exhaustive when 2^atoms fits). */
    std::uint64_t bound = 4096;
    std::uint64_t sampleSeed = 1; //!< sampling PRNG seed above bound
    /** Fault-injection mode name ("", "none", "drop-undo"). */
    std::string fault;
    /** Non-empty: hex mask of the single state to check (--repro). */
    std::string onlyState;

    /** Check-loop engine name ("", "incremental", "naive"). Purely an
     *  execution knob: every engine produces bit-identical verdicts,
     *  so it never enters job keys or caches. */
    std::string engine;
    /** Worker threads for the incremental engine (1 = inline, 0 = one
     *  per hardware thread). Execution knob like engine. */
    unsigned threads = 1;
};

/**
 * One check of a crashed system. Empty: check the canonical
 * post-crash NVM state (a Crash job). A PermuteSpec: check every
 * reachable post-crash state under its knobs (a Permute job).
 */
using CrashCheck = std::optional<PermuteSpec>;

/**
 * Check one crash point: run @p workload under @p cfg, inject a power
 * failure at @p crash_tick (drain the ADR domain, rewind speculation)
 * once, then run each of @p checks in order against the surviving NVM
 * contents and the run log. The permuter's crash-instant snapshot is
 * harvested only when some check needs it; it only reads the system,
 * so the crash, and every verdict, is the same as each check's own
 * simulation would give. Checks do not see each other: the naive
 * permute engine restores the NVM image it mutates.
 *
 * @return one result per check, in order. Each carries the crashed
 *         run's RunResult (hostNs included: the one simulation
 *         behind every verdict) and a verdict with the same crash
 *         fields and its own check's outcome.
 */
std::vector<CrashRunResult> runCrashPoint(const std::string &workload,
                                          const SimConfig &cfg,
                                          const WorkloadParams &p,
                                          Tick crash_tick,
                                          const std::vector<CrashCheck>
                                              &checks);

/** runCrashPoint with the single canonical check. */
CrashRunResult runCrashExperiment(const std::string &workload,
                                  const SimConfig &cfg,
                                  const WorkloadParams &p,
                                  Tick crash_tick);

/**
 * runCrashPoint with the single permute check @p spec: the verdict's
 * consistency covers all checked states; coverage lands in the
 * statesChecked/statesReachable fields.
 */
CrashRunResult runPermuteExperiment(const std::string &workload,
                                    const SimConfig &cfg,
                                    const WorkloadParams &p,
                                    Tick crash_tick,
                                    const PermuteSpec &spec);

} // namespace asap

#endif // ASAP_HARNESS_RUNNER_HH
