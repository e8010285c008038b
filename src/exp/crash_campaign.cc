#include "exp/crash_campaign.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace asap
{

const std::vector<TickStrategyInfo> &
allTickStrategies()
{
    static const std::vector<TickStrategyInfo> table = {
        {TickStrategy::Stride, "stride",
         "evenly spaced crash points across the probed run"},
        {TickStrategy::EpochBiased, "epoch",
         "crash points jittered around estimated epoch boundaries"},
        {TickStrategy::Random, "random",
         "uniform random crash points (seeded, reproducible)"},
    };
    return table;
}

bool
tryParseTickStrategy(const std::string &name, TickStrategy &out)
{
    for (const TickStrategyInfo &info : allTickStrategies()) {
        if (name == info.name) {
            out = info.strategy;
            return true;
        }
    }
    return false;
}

TickStrategy
parseTickStrategy(const std::string &name)
{
    TickStrategy out = TickStrategy::Stride;
    if (tryParseTickStrategy(name, out))
        return out;
    std::string valid;
    for (const TickStrategyInfo &info : allTickStrategies()) {
        if (!valid.empty())
            valid += ", ";
        valid += info.name;
    }
    fatal("unknown tick strategy '", name, "'; valid strategies: ",
          valid, " (see --list-strategies)");
    return out; // unreachable
}

std::string
toString(TickStrategy strategy)
{
    switch (strategy) {
      case TickStrategy::Stride: return "stride";
      case TickStrategy::EpochBiased: return "epoch";
      case TickStrategy::Random: return "random";
    }
    return "?";
}

std::vector<Tick>
selectCrashTicks(TickStrategy strategy, Tick total_ticks,
                 std::uint64_t epochs, unsigned cores, unsigned count,
                 std::uint64_t seed)
{
    std::vector<Tick> ticks;
    ticks.reserve(count);
    const Tick total = std::max<Tick>(total_ticks, 1);
    Rng rng(seed);

    switch (strategy) {
      case TickStrategy::Stride:
        for (unsigned i = 0; i < count; ++i)
            ticks.push_back(
                std::max<Tick>(1, (Tick(i) + 1) * total / count));
        break;
      case TickStrategy::Random:
        for (unsigned i = 0; i < count; ++i)
            ticks.push_back(1 + rng.below(total));
        break;
      case TickStrategy::EpochBiased: {
        // Per-thread epoch length estimate: `epochs` counts every
        // thread's epochs, so one thread commits roughly every
        // total * cores / epochs ticks.
        const Tick span = std::max<Tick>(
            1, total * std::max(cores, 1u) / std::max<Tick>(epochs, 1));
        const Tick boundaries = std::max<Tick>(1, total / span);
        for (unsigned i = 0; i < count; ++i) {
            const Tick b = span * rng.range(1, boundaries);
            // Jitter within ±span/8 of the boundary: the window in
            // which commit messages, RT cleanup and CDR traffic for
            // that epoch are in flight.
            const Tick window = span / 8;
            Tick t = b + rng.below(2 * window + 1);
            t = t > window ? t - window : 1;
            ticks.push_back(std::min(std::max<Tick>(t, 1), total));
        }
        break;
      }
    }
    return ticks;
}

std::vector<ExperimentJob>
campaignProbeJobs(const CampaignSpec &spec)
{
    // One probe Run job per configuration — runtime and epoch count
    // bound the crash-tick selection. Probes are ordinary Run jobs:
    // parallel, deduplicated, cached (a figure sweep that already ran
    // this config makes the probe free).
    JobSet probes;
    for (const std::string &w : spec.workloads) {
        for (const ModelPair &m : spec.models) {
            for (unsigned cores : spec.coreCounts) {
                SimConfig cfg = spec.base;
                cfg.model = m.first;
                cfg.persistency = m.second;
                cfg.numCores = cores;
                probes.add(w, cfg, spec.params);
            }
        }
    }
    return probes.jobs();
}

std::vector<ProbeStat>
ensureProbeStats(const CampaignSpec &spec, const RunOptions &opt,
                 const SweepRunner &runner)
{
    const SweepResult probeSr =
        runner ? runner(campaignProbeJobs(spec), opt)
               : runJobs(campaignProbeJobs(spec), opt);
    std::vector<ProbeStat> stats;
    stats.reserve(probeSr.jobs.size());
    for (std::size_t c = 0; c < probeSr.jobs.size(); ++c)
        stats.push_back({probeSr.at(c).runTicks, probeSr.at(c).epochs});
    return stats;
}

CampaignExpansion
expandCampaign(const CampaignSpec &spec,
               const std::vector<ProbeStat> &stats)
{
    const std::vector<ExperimentJob> confs = campaignProbeJobs(spec);
    if (confs.size() != stats.size()) {
        fatal("expandCampaign: ", stats.size(), " probe stats for ",
              confs.size(), " configurations");
    }
    CampaignExpansion out;
    JobSet crash;
    for (std::size_t c = 0; c < confs.size(); ++c) {
        const ExperimentJob &conf = confs[c];
        const ProbeStat &probe = stats[c];
        const std::vector<Tick> ticks = selectCrashTicks(
            spec.strategy, probe.runTicks, probe.epochs,
            conf.cfg.numCores, spec.ticksPerConfig,
            spec.tickSeed + 0x9e3779b97f4a7c15ULL * (c + 1));
        for (Tick t : ticks) {
            if (spec.sweepKind == JobKind::Permute) {
                crash.addPermute(conf.workload, conf.cfg, spec.params,
                                 t, spec.permuteBound, spec.permuteSeed,
                                 spec.permuteFault, "",
                                 spec.permuteEngine,
                                 spec.permuteThreads);
            } else {
                crash.addCrash(conf.workload, conf.cfg, spec.params, t);
            }
        }

        CampaignRow row;
        row.workload = conf.workload;
        row.model = conf.cfg.model;
        row.pm = conf.cfg.persistency;
        row.cores = conf.cfg.numCores;
        row.probeTicks = probe.runTicks;
        row.probeEpochs = probe.epochs;
        row.points = ticks.size();
        out.rows.push_back(std::move(row));
    }
    out.crashJobs = crash.jobs();
    return out;
}

CampaignResult
runCampaign(const CampaignSpec &spec, const RunOptions &opt)
{
    CampaignResult out;
    CampaignExpansion expansion =
        expandCampaign(spec, ensureProbeStats(spec, opt));

    out.rows = std::move(expansion.rows);
    out.sweep = runJobs(std::move(expansion.crashJobs), opt);

    // Verdict accounting, in submission (= config) order.
    out.badJobs = out.sweep.inconsistentJobs();
    std::size_t next = 0;
    for (CampaignRow &row : out.rows) {
        for (std::size_t i = 0; i < row.points; ++i, ++next) {
            if (out.sweep.verdicts[next].consistent)
                ++row.consistent;
        }
    }
    return out;
}

std::string
reproCommand(const ExperimentJob &job, const std::string &state)
{
    const bool permute = job.kind == JobKind::Permute;
    std::ostringstream os;
    os << (permute ? "build/bench/crash_permute"
                   : "build/bench/crash_campaign")
       << " --repro"
       << " --workload " << job.workload;
    // Default-media repro lines stay byte-identical to pre-media ones.
    if (job.cfg.mediaProfile != kDefaultMediaProfile)
        os << " --media " << job.cfg.mediaProfile;
    os << " --model " << toString(job.cfg.model)
       << " --pm " << toString(job.cfg.persistency)
       << " --cores " << job.cfg.numCores
       << " --ops " << job.params.opsPerThread
       << " --seed " << job.params.seed
       << " --crash-tick " << job.crashTick;
    if (permute) {
        os << " --bound " << job.permuteBound
           << " --sample-seed " << job.permuteSeed;
        if (!job.permuteFault.empty())
            os << " --inject-fault " << job.permuteFault;
        if (!state.empty())
            os << " --state " << state;
        else if (!job.permuteState.empty())
            os << " --state " << job.permuteState;
    }
    return os.str();
}

} // namespace asap
