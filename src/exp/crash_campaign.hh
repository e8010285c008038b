/**
 * @file
 * Crash-injection campaigns: systematic sweeps of power-failure
 * points through the experiment engine.
 *
 * A campaign fuzzes recovery consistency at scale: for every
 * (workload, model, core count) configuration it first measures the
 * undisturbed runtime and epoch count with a probe Run job, derives a
 * set of crash ticks from a selection strategy, then executes one
 * Crash job per tick — all through runJobs(), so probes and crash
 * points alike sweep in parallel, deduplicate, and cache exactly like
 * figure sweeps (a warm ASAP_CACHE_DIR rerun simulates nothing). Every
 * inconsistency is reproducible from a single printed `--repro`
 * command line.
 */

#ifndef ASAP_EXP_CRASH_CAMPAIGN_HH
#define ASAP_EXP_CRASH_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/engine.hh"
#include "exp/sweep.hh"

namespace asap
{

/**
 * How a probe phase runs its sweep: any callable with the runJobs()
 * shape. The default is runJobs itself; a caller that keeps or
 * instruments the probe sweep (perfbench/) passes its own.
 */
using SweepRunner = std::function<SweepResult(std::vector<ExperimentJob>,
                                              const RunOptions &)>;

/** How a campaign picks crash ticks within a config's runtime. */
enum class TickStrategy
{
    Stride,      //!< uniform stride across [1, runTicks]
    EpochBiased, //!< clustered near estimated epoch boundaries
    Random,      //!< seeded uniform random
};

/** Parse "stride|epoch|random"; returns false on an unknown name. */
bool tryParseTickStrategy(const std::string &name, TickStrategy &out);

/** Parse "stride|epoch|random" (fatal on anything else, listing the
 *  valid strategies in the error). */
TickStrategy parseTickStrategy(const std::string &name);

/** Printable name for the enum above. */
std::string toString(TickStrategy strategy);

/** One tick strategy the parser accepts, for --list-strategies. */
struct TickStrategyInfo
{
    TickStrategy strategy;
    const char *name;
    const char *description;
};

/** Every strategy, in parse order. */
const std::vector<TickStrategyInfo> &allTickStrategies();

/**
 * Pick @p count crash ticks in [1, total_ticks].
 *
 * Deterministic in its arguments. EpochBiased estimates per-thread
 * epoch boundaries as evenly spaced commit points (the run's epoch
 * count is a global total, so boundary spacing is
 * total_ticks * cores / epochs) and samples tightly around them —
 * the moments the Recovery Table is busiest. Duplicate ticks are
 * possible for tiny runs; the engine dedups the resulting jobs.
 */
std::vector<Tick> selectCrashTicks(TickStrategy strategy,
                                   Tick total_ticks,
                                   std::uint64_t epochs, unsigned cores,
                                   unsigned count, std::uint64_t seed);

/** Declarative crash campaign over a configuration cross-product. */
struct CampaignSpec
{
    std::vector<std::string> workloads;
    std::vector<ModelPair> models;
    std::vector<unsigned> coreCounts = {4};
    WorkloadParams params;
    /** Base configuration; model/persistency/numCores/seed are
     *  overwritten per job, as in SweepSpec. */
    SimConfig base;

    TickStrategy strategy = TickStrategy::Stride;
    unsigned ticksPerConfig = 40; //!< crash points per configuration
    std::uint64_t tickSeed = 1;   //!< seed for tick selection

    /** What each crash point runs: Crash checks the canonical
     *  post-crash state; Permute enumerates every reachable one
     *  (src/permute) with the knobs below. Probe jobs and tick
     *  selection are identical either way. */
    JobKind sweepKind = JobKind::Crash;
    std::uint64_t permuteBound = 4096; //!< max states per crash point
    std::uint64_t permuteSeed = 1;     //!< sampling seed above bound
    std::string permuteFault;          //!< fault hook ("", "drop-undo")
    /** Check-loop execution knobs (never keyed — see ExperimentJob). */
    std::string permuteEngine;   //!< "", "incremental", "naive"
    unsigned permuteThreads = 1; //!< 1 = inline, 0 = hw threads
};

/** Per-configuration verdict summary row. */
struct CampaignRow
{
    std::string workload;
    ModelKind model = ModelKind::Asap;
    PersistencyModel pm = PersistencyModel::Release;
    unsigned cores = 0;

    Tick probeTicks = 0;          //!< undisturbed runtime (probe job)
    std::uint64_t probeEpochs = 0; //!< epochs opened in the probe
    std::size_t points = 0;       //!< crash points executed
    std::size_t consistent = 0;   //!< verdicts that passed the checker
};

/** A completed campaign: the crash sweep plus verdict accounting. */
struct CampaignResult
{
    SweepResult sweep;             //!< the crash jobs, in config order
    std::vector<CampaignRow> rows; //!< one row per configuration
    std::vector<std::size_t> badJobs; //!< sweep indices, inconsistent

    std::size_t crashPoints() const { return sweep.jobs.size(); }
    bool allConsistent() const { return badJobs.empty(); }
};

/**
 * Probe summary of one configuration: the only two stats crash-tick
 * selection needs from its probe RunResult.
 */
struct ProbeStat
{
    Tick runTicks = 0;          //!< undisturbed runtime
    std::uint64_t epochs = 0;   //!< epochs opened
};

/**
 * The probe phase: run campaignProbeJobs(spec) through @p runner
 * (empty = runJobs) with @p opt and keep each probe's runtime and
 * epoch count, in campaignProbeJobs() order.
 */
std::vector<ProbeStat> ensureProbeStats(const CampaignSpec &spec,
                                        const RunOptions &opt,
                                        const SweepRunner &runner = {});

/**
 * Phase 1 of a campaign: one probe Run job per (workload, model,
 * core count) configuration, in the cross-product order rows are
 * reported in. Probes measure the undisturbed runtime and epoch
 * count that bound crash-tick selection.
 */
std::vector<ExperimentJob> campaignProbeJobs(const CampaignSpec &spec);

/** Phase-2 expansion: the crash jobs and their per-config rows. */
struct CampaignExpansion
{
    std::vector<ExperimentJob> crashJobs; //!< config-major, tick order
    std::vector<CampaignRow> rows;        //!< points filled, verdicts not
};

/**
 * Derive the crash sweep from probe stats (campaignProbeJobs()
 * order). Tick selection is deterministic in the spec and the stats.
 * Fatal if the counts disagree.
 */
CampaignExpansion expandCampaign(const CampaignSpec &spec,
                                 const std::vector<ProbeStat> &stats);

/**
 * Run a campaign: probe phase (ensureProbeStats), tick selection,
 * crash sweep. Both sweeps go through runJobs() with @p opt
 * (parallel + cached).
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           const RunOptions &opt = {});

/**
 * One-line `bench/crash_campaign --repro ...` (or, for Permute jobs,
 * `bench/crash_permute --repro ...`) invocation that replays exactly
 * @p job (workload, model, seed, crash tick, permute knobs) and
 * reprints its verdict. @p state narrows a permute repro to a single
 * enumerated state (pass the verdict's firstBadState).
 */
std::string reproCommand(const ExperimentJob &job,
                         const std::string &state = "");

} // namespace asap

#endif // ASAP_EXP_CRASH_CAMPAIGN_HH
