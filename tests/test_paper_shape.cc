/**
 * @file
 * The paper's Figure 8 conclusions as assertions (EXPERIMENTS.md), at
 * the benchmark's Figure 8 settings: the 14 Table III workloads under
 * baseline, HOPS_EP/RP, ASAP_EP/RP and eADR, 4 cores, 200 ops per
 * thread, seed 1.
 *
 *  - gmean speedup over baseline: 1 < HOPS_RP < ASAP_RP <= eADR, with
 *    ASAP_RP within 5% of eADR;
 *  - HOPS_EP is slower than baseline on queue, cceh, dash-lh, dash-eh
 *    and p-art;
 *  - with a one-entry Recovery Table, ASAP_RP NACKs and falls back,
 *    yet still beats HOPS_RP on queue, cceh and p-art.
 *
 * A refactor that shifts a model's timing enough to flip one of these
 * fails here, whatever the pinned per-run outputs say.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exp/engine.hh"
#include "exp/sweep.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

namespace asap
{
namespace
{

constexpr unsigned kCores = 4;

WorkloadParams
fig08Params()
{
    WorkloadParams p;
    p.opsPerThread = 200;
    p.seed = 1;
    return p;
}

SimConfig
modelConfig(const ModelPair &m)
{
    SimConfig cfg;
    cfg.model = m.first;
    cfg.persistency = m.second;
    cfg.numCores = kCores;
    return cfg;
}

double
gmean(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

TEST(PaperShape, Fig08Conclusions)
{
    setLogQuiet(true);
    const ModelPair baseline{ModelKind::Baseline, PersistencyModel::Release};
    const ModelPair hopsEp{ModelKind::Hops, PersistencyModel::Epoch};
    const ModelPair hopsRp{ModelKind::Hops, PersistencyModel::Release};
    const ModelPair asapEp{ModelKind::Asap, PersistencyModel::Epoch};
    const ModelPair asapRp{ModelKind::Asap, PersistencyModel::Release};
    const ModelPair eadr{ModelKind::Eadr, PersistencyModel::Release};
    const ModelPair cols[] = {baseline, hopsEp, hopsRp,
                              asapEp,   asapRp, eadr};
    const char *const hopsEpLosers[] = {"queue", "cceh", "dash-lh",
                                        "dash-eh", "p-art"};
    const char *const nackWorkloads[] = {"queue", "cceh", "p-art"};

    JobSet set;
    for (const WorkloadInfo &w : allWorkloads()) {
        for (const ModelPair &m : cols)
            set.add(w.name, modelConfig(m), fig08Params());
    }
    std::vector<std::size_t> nackJobs;
    for (const char *w : nackWorkloads) {
        SimConfig cfg = modelConfig(asapRp);
        cfg.rtEntries = 1;
        nackJobs.push_back(set.add(w, cfg, fig08Params()));
    }
    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runJobs(set.jobs(), opt);
    ASSERT_EQ(allWorkloads().size(), 14u);

    auto ticks = [&sr](const std::string &w, const ModelPair &m) {
        const RunResult *r = sr.find(w, m.first, m.second, kCores);
        EXPECT_NE(r, nullptr) << w;
        return r ? static_cast<double>(r->runTicks) : 1.0;
    };
    auto speedup = [&](const std::string &w, const ModelPair &m) {
        return ticks(w, baseline) / ticks(w, m);
    };
    auto gmeanSpeedup = [&](const ModelPair &m) {
        std::vector<double> xs;
        for (const WorkloadInfo &w : allWorkloads())
            xs.push_back(speedup(w.name, m));
        return gmean(xs);
    };

    const double hopsRpG = gmeanSpeedup(hopsRp);
    const double asapRpG = gmeanSpeedup(asapRp);
    const double eadrG = gmeanSpeedup(eadr);
    EXPECT_GT(hopsRpG, 1.0);
    EXPECT_LT(hopsRpG, asapRpG);
    EXPECT_LE(asapRpG, eadrG);
    EXPECT_GE(asapRpG, 0.95 * eadrG) << "ASAP_RP not within 5% of eADR";

    for (const char *w : hopsEpLosers)
        EXPECT_LT(speedup(w, hopsEp), 1.0) << w;

    // sr.find returns the first asap_rp row, which is the Table II
    // Recovery Table: read the one-entry runs by index.
    for (std::size_t k = 0; k < nackJobs.size(); ++k) {
        const RunResult &tiny = sr.results[nackJobs[k]];
        const char *w = nackWorkloads[k];
        EXPECT_GT(tiny.nacks, 0u) << w;
        EXPECT_LT(static_cast<double>(tiny.runTicks), ticks(w, hopsRp))
            << w;
    }
}

} // namespace
} // namespace asap
