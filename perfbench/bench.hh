/**
 * @file
 * Shared declarations of the end-to-end benchmark: workload plans,
 * output checks, and the untraced and traced ways of running a plan.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/crash_campaign.hh"
#include "exp/engine.hh"
#include "spans.hh"

namespace perfbench
{

/** Full = the measured sizes; Tiny = the self-test's quick pass. */
enum class Size
{
    Full,
    Tiny,
};

/**
 * What one workload runs. fig08 and serve are one closed batch of
 * jobs; crash is a probe batch, tick selection, then one batch of a
 * Crash and a Permute job per crash point plus the pinned points.
 */
struct Plan
{
    std::string name;
    std::vector<asap::ExperimentJob> jobs; //!< fig08, serve
    bool campaign = false;                 //!< crash
    asap::CampaignSpec spec;               //!< crash: probes + ticks
    std::vector<asap::ExperimentJob> pinned; //!< crash: known failure
};

/** The workloads this benchmark knows, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Expand @p workload's job lists for @p seed (fatal if unknown). */
Plan makePlan(const std::string &workload, std::uint64_t seed, Size size);

/** Crash batch from probe results: for each selected tick a Crash and
 *  a Permute job, then the pinned points; duplicate jobs dropped, so
 *  every submitted job simulates exactly once. */
std::vector<asap::ExperimentJob>
crashBatch(const Plan &plan, const std::vector<asap::ProbeStat> &stats);

/** True for the pinned p-art/asap_rp point that is inconsistent at
 *  the seed (a known finding, not a benchmark malfunction). */
bool isKnownFailure(const asap::ExperimentJob &job);

/** Drop every in-process memo (results, probe summaries, traces,
 *  checker indexes) so the next run starts cold. */
void clearCaches();

/** Figure 8 gmean speedups and the paper's conclusions. */
struct Fig08Summary
{
    /** gmean speedup over baseline: HOPS_EP, HOPS_RP, ASAP_EP,
     *  ASAP_RP, eADR. */
    double gmean[5] = {};
    /** Mean |sim - paper| / paper of HOPS_RP, ASAP_EP, ASAP_RP, eADR
     *  against 1.86 / 2.10 / 2.29 / 2.38, in percent. */
    double errPct = 0.0;
    bool ordering = false;     //!< baseline < HOPS_RP < ASAP_RP <= eADR
    bool asapNearEadr = false; //!< ASAP_RP within 5% of eADR
    bool hopsEpBelow = false;  //!< HOPS_EP < 1.0 on the five structures
    std::string hopsEpDetail;  //!< per-structure HOPS_EP speedups
};

Fig08Summary fig08Summary(const asap::SweepResult &sr);

/** Hash of every deterministic job, result and verdict field (the
 *  result-cache codec) in job order. */
std::uint64_t digest(const asap::SweepResult &probe,
                     const asap::SweepResult &batch);

/** Ledger of output checks: everything feeding fail_frac. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  //!< unexpected failures
    std::uint64_t known = 0;   //!< the pinned known seed failure
    std::vector<std::string> notes; //!< first few failure descriptions

    /** Count one check; record @p what when it fails. */
    void expect(bool ok, const std::string &what);

    /** Count the verdicts of @p sr: inconsistent ones are failures,
     *  known or not; each failure's repro line goes to the notes. */
    void verdicts(const asap::SweepResult &sr);

    double failFrac() const;

  private:
    /** Keep @p what unless already noted (repeats are common: every
     *  run of a plan fails the same way). */
    void note(const std::string &what);
};

/** Deterministic totals over one workload run's jobs. */
using Counters = std::map<std::string, double>;

/** One run of a plan on the engine's own path (runJobs). */
struct UntracedRun
{
    double wallS = 0.0;
    double cpuS = 0.0;
    asap::SweepResult probe; //!< crash only
    asap::SweepResult batch;
    std::uint64_t indexBuilds = 0, indexHits = 0; //!< checker memo
};

/**
 * Run @p plan cold through the program's own entry points
 * (ensureProbeStats / runJobs / emitToFile) on @p workers threads,
 * writing the artifacts to @p stem + ".json" / ".csv".
 */
UntracedRun runUntraced(const Plan &plan, unsigned workers,
                        const std::string &stem);

/** One traced run: the same jobs, driven call by call with spans. */
struct TracedRun
{
    double wallS = 0.0;
    std::vector<Span> spans;
    asap::SweepResult probe;
    asap::SweepResult batch;
    /** System::stats() totals over the jobs the run built a System
     *  for (cache.*, core.opsRetired). */
    Counters systemStats;
};

TracedRun runTraced(const Plan &plan, unsigned workers,
                    const std::string &stem);

/** Run the host-speed probe (probe.cc) on @p workers threads; return
 *  its wall time summed over the threads. */
double probeHostSeconds(unsigned workers);

/** User + system CPU seconds this process has used. */
double cpuSeconds();

/** Rows of an emitToFile artifact read back from disk: elements of
 *  the JSON "results" array / CSV records after the header. -1 when
 *  the file is missing or does not parse. */
long jsonArtifactRows(const std::string &path);
long csvArtifactRows(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
