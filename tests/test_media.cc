/**
 * @file
 * Tests for the pluggable media-model subsystem (src/media/):
 * profile registry, parameter resolution and overrides, the
 * bandwidth-cap queueing model, byte-identity of the default
 * `paper-table2` profile against seed-captured figure CSV rows,
 * cache-key separation between profiles, deterministic parallel
 * media sweeps (uniform and per-MC) and crash consistency on
 * non-default media.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/cache.hh"
#include "exp/crash_campaign.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
#include "exp/sweep.hh"
#include "media/media.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

WorkloadParams
params30()
{
    WorkloadParams p;
    p.opsPerThread = 30;
    p.seed = 1;
    return p;
}

/** A streamed serve job on heterogeneous per-MC media. */
ExperimentJob
heteroServeJob()
{
    ExperimentJob j;
    j.workload = "serve:kv-zipf";
    j.cfg.model = ModelKind::Asap;
    j.cfg.persistency = PersistencyModel::Release;
    j.cfg.numMCs = 2;
    j.cfg.mediaPerMc = "paper-table2,cxl-dram";
    j.params = params30();
    return j;
}

class MediaTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogQuiet(true); }
};

TEST_F(MediaTest, RegistryListsAllProfilesAndResolvesEach)
{
    const std::vector<MediaProfileInfo> &profiles = allMediaProfiles();
    ASSERT_GE(profiles.size(), 6u);
    EXPECT_EQ(profiles.front().name, std::string(kDefaultMediaProfile));
    for (const MediaProfileInfo &info : profiles) {
        EXPECT_TRUE(isMediaProfile(info.name)) << info.name;
        EXPECT_FALSE(info.description.empty()) << info.name;
        SimConfig cfg;
        cfg.mediaProfile = info.name;
        const MediaParams p = resolveMediaParams(cfg);
        EXPECT_EQ(p.profile, info.name);
        EXPECT_GT(p.readLatency, 0u) << info.name;
        EXPECT_GT(p.writeLatency, 0u) << info.name;
        EXPECT_GT(p.banks, 0u) << info.name;
        EXPECT_GE(p.writeGBps, 0.0) << info.name;
    }
    EXPECT_FALSE(isMediaProfile("no-such-media"));
}

TEST_F(MediaTest, PaperProfileTracksLegacyKnobs)
{
    SimConfig cfg;
    cfg.pmReadLatency = 1234;
    cfg.pmWriteLatency = 567;
    cfg.nvmBanks = 24;
    cfg.xpBufferHitLatency = 21;
    cfg.dramLatency = 99;
    const MediaParams p = resolveMediaParams(cfg);
    EXPECT_EQ(p.readLatency, 1234u);
    EXPECT_EQ(p.writeLatency, 567u);
    EXPECT_EQ(p.banks, 24u);
    EXPECT_EQ(p.hitLatency, 21u);
    EXPECT_EQ(p.dramFillLatency, 99u);
    EXPECT_DOUBLE_EQ(p.writeGBps, 0.0); // uncapped, as in the seed
}

TEST_F(MediaTest, MediaOverridesBeatProfileDefaults)
{
    SimConfig cfg;
    cfg.mediaProfile = "slow-nvm";
    cfg.mediaReadLatency = 42;
    cfg.mediaBanks = 7;
    cfg.mediaWriteGBps = 0.0; // explicit uncap
    const MediaParams p = resolveMediaParams(cfg);
    EXPECT_EQ(p.readLatency, 42u);
    EXPECT_EQ(p.banks, 7u);
    EXPECT_DOUBLE_EQ(p.writeGBps, 0.0);
    // Untouched fields keep the profile's values.
    EXPECT_EQ(p.writeLatency, nsToTicks(600));
}

TEST_F(MediaTest, ConfigOverrideStringsReachMediaKnobs)
{
    SimConfig cfg;
    cfg.override("media=cxl-flash");
    EXPECT_EQ(cfg.mediaProfile, "cxl-flash");
    cfg.override("mediaWriteLatency=777");
    EXPECT_EQ(cfg.mediaWriteLatency, 777u);
    cfg.override("mediaWriteGBps=2.5");
    EXPECT_DOUBLE_EQ(cfg.mediaWriteGBps, 2.5);
}

TEST_F(MediaTest, BandwidthCapQueuesWrites)
{
    // slow-nvm: 1 GB/s cap at 2 GHz = 2 cycles/byte, so one 64 B
    // line occupies the media pipeline for 128 cycles.
    SimConfig cfg;
    cfg.mediaProfile = "slow-nvm";
    std::unique_ptr<MediaModel> m = makeMediaModel(cfg);
    const Tick service = m->params().writeLatency;

    const MediaModel::WriteGrant g0 = m->startWrite(0, 64);
    EXPECT_EQ(g0.queueDelay, 0u);
    EXPECT_EQ(g0.serviceLatency, service);

    // Issued at the same instant: waits for the first line's slot.
    const MediaModel::WriteGrant g1 = m->startWrite(0, 64);
    EXPECT_EQ(g1.queueDelay, 128u);
    EXPECT_EQ(g1.serviceLatency, service + 128);

    // Issued after the pipeline drained: no delay again.
    const MediaModel::WriteGrant g2 = m->startWrite(1000, 64);
    EXPECT_EQ(g2.queueDelay, 0u);
    EXPECT_EQ(g2.serviceLatency, service);
}

TEST_F(MediaTest, UncappedProfileNeverQueues)
{
    SimConfig cfg; // paper-table2: no cap
    std::unique_ptr<MediaModel> m = makeMediaModel(cfg);
    for (Tick t = 0; t < 4; ++t) {
        const MediaModel::WriteGrant g = m->startWrite(0, 64);
        EXPECT_EQ(g.queueDelay, 0u);
        EXPECT_EQ(g.serviceLatency, cfg.pmWriteLatency);
    }
}

/**
 * Byte-identity of the default profile: these rows were captured from
 * the pre-media seed's fig02/fig08 CSV artifacts (`--ops 30`,
 * seed 1). The media subsystem must reproduce them exactly — schema
 * included (no media columns on a default-profile sweep).
 */
TEST_F(MediaTest, PaperProfileByteIdenticalToSeedFigureRows)
{
    SweepSpec spec;
    spec.workloads = {"echo", "cceh"};
    spec.models = {{ModelKind::Baseline, PersistencyModel::Release},
                   {ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.params = params30();

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const SweepResult sr = runSweep(spec, opt);

    std::ostringstream csv;
    emitCsv(csv, sr);
    const std::string expected =
        "workload,model,persistency,cores,seed,opsPerThread,runTicks,"
        "pmWrites,pmReads,cyclesBlocked,cyclesStalled,dfenceStalled,"
        "sfenceStalled,entriesInserted,epochs,crossDeps,totSpecWrites,"
        "totalUndo,totalDelay,nacks,rtMaxOccupancy,pbOccMean,pbOccP99,"
        "wpqCoalesced,suppressedWrites\n"
        // seed fig08.csv rows (baseline/HOPS), seed fig02.csv (ASAP).
        // The kernel-v4 same-tick tie-break (creator-domain send
        // counters, kCodeSalt asap-sim-v4) nudged pbOccMean on the two
        // cceh rows below; every integer stat matches the seed rows.
        "echo,baseline,rp,4,1,30,26149,298,0,0,0,0,30720,0,0,0,0,0,0,"
        "0,0,0,0,0,0\n"
        "echo,hops,rp,4,1,30,18465,298,0,16108,0,1008,0,409,412,48,0,"
        "0,0,0,0,0.841653,3,111,0\n"
        "echo,asap,rp,4,1,30,18465,300,172,0,0,1008,0,418,412,48,172,"
        "172,0,0,5,0.67028,3,118,0\n"
        "cceh,baseline,rp,4,1,30,90986,110,0,0,0,0,14080,0,0,0,0,0,0,"
        "0,0,0,0,0,0\n"
        "cceh,hops,rp,4,1,30,89176,109,0,24676,0,6138,0,148,319,95,0,"
        "0,0,0,0,0.105887,2,39,0\n"
        "cceh,asap,rp,4,1,30,87376,110,32,0,0,1108,0,220,319,95,52,"
        "47,5,0,3,0.041141,1,110,0\n";
    EXPECT_EQ(csv.str(), expected);
}

/**
 * Outputs pinned across event-kernel changes. The rows below were
 * captured with per-creator-domain sequence keys; each configuration
 * moves if same-tick ties are ordered any other way (a plain global
 * counter changes all three), so a refactor that claims identical
 * outputs must leave them byte-identical.
 */
std::string
pinnedCsv(const SweepResult &sr)
{
    std::ostringstream csv;
    emitCsv(csv, sr);
    return csv.str();
}

TEST_F(MediaTest, Fig08ModelsPinnedOnCcehAndSkiplist)
{
    SweepSpec spec;
    spec.workloads = {"cceh", "skiplist"};
    spec.models = {{ModelKind::Baseline, PersistencyModel::Release},
                   {ModelKind::Baseline, PersistencyModel::Epoch},
                   {ModelKind::Hops, PersistencyModel::Epoch},
                   {ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Epoch},
                   {ModelKind::Asap, PersistencyModel::Release},
                   {ModelKind::Eadr, PersistencyModel::Release},
                   {ModelKind::Eadr, PersistencyModel::Epoch}};
    spec.params = params30();
    // Baseline and eADR have no epoch hardware: under EP they answer
    // every conflict with "no dependency", so their rows equal RP's.

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const std::string expected =
        "workload,model,persistency,cores,seed,opsPerThread,runTicks,"
        "pmWrites,pmReads,cyclesBlocked,cyclesStalled,dfenceStalled,"
        "sfenceStalled,entriesInserted,epochs,crossDeps,totSpecWrites,"
        "totalUndo,totalDelay,nacks,rtMaxOccupancy,pbOccMean,pbOccP99,"
        "wpqCoalesced,suppressedWrites\n"
        "cceh,baseline,rp,4,1,30,90986,110,0,0,0,0,14080,0,0,0,0,0,0,0,0,"
        "0,0,0,0\n"
        "cceh,baseline,ep,4,1,30,90986,110,0,0,0,0,14080,0,0,0,0,0,0,0,0,"
        "0,0,0,0\n"
        "cceh,hops,ep,4,1,30,92176,110,0,52227,0,16584,0,133,572,174,0,0,"
        "0,0,0,0.281604,4,23,0\n"
        "cceh,hops,rp,4,1,30,89176,109,0,24676,0,6138,0,148,319,95,0,0,0,"
        "0,0,0.105887,2,39,0\n"
        "cceh,asap,ep,4,1,30,87376,110,42,0,0,1112,0,220,572,174,71,58,"
        "13,0,3,0.041152,1,110,0\n"
        "cceh,asap,rp,4,1,30,87376,110,32,0,0,1108,0,220,319,95,52,47,5,"
        "0,3,0.041141,1,110,0\n"
        "cceh,eadr,rp,4,1,30,87100,109,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,111,"
        "0\n"
        "cceh,eadr,ep,4,1,30,87100,109,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,111,"
        "0\n"
        "skiplist,baseline,rp,4,1,30,85746,419,0,0,0,0,45952,0,0,0,0,0,0,"
        "0,0,0,0,115,0\n"
        "skiplist,baseline,ep,4,1,30,85746,419,0,0,0,0,45952,0,0,0,0,0,0,"
        "0,0,0,0,115,0\n"
        "skiplist,hops,ep,4,1,30,87136,419,0,325242,0,33567,0,537,1328,"
        "423,0,0,0,0,0,10.4599,20,118,0\n"
        "skiplist,hops,rp,4,1,30,85691,419,0,328763,10256,61501,0,537,"
        "601,119,0,0,0,0,0,20.8398,32,118,0\n"
        "skiplist,asap,ep,4,1,30,40096,429,157,0,0,1110,0,832,1328,423,"
        "639,405,234,0,12,0.900985,11,398,0\n"
        "skiplist,asap,rp,4,1,30,40096,429,157,0,0,1110,0,832,601,119,"
        "639,405,234,0,12,0.900985,11,398,0\n"
        "skiplist,eadr,rp,4,1,30,39798,412,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "563,0\n"
        "skiplist,eadr,ep,4,1,30,39798,412,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "563,0\n";
    EXPECT_EQ(pinnedCsv(runSweep(spec, opt)), expected);
}

TEST_F(MediaTest, ServeKvZipfPinnedAcrossModels)
{
    SweepSpec spec;
    spec.workloads = {"serve:kv-zipf"};
    spec.models = {{ModelKind::Baseline, PersistencyModel::Release},
                   {ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Release},
                   {ModelKind::Eadr, PersistencyModel::Release}};
    spec.params.opsPerThread = 100;
    spec.params.seed = 1;

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const std::string expected =
        "workload,model,persistency,cores,seed,opsPerThread,runTicks,"
        "pmWrites,pmReads,cyclesBlocked,cyclesStalled,dfenceStalled,"
        "sfenceStalled,entriesInserted,epochs,crossDeps,totSpecWrites,"
        "totalUndo,totalDelay,nacks,rtMaxOccupancy,pbOccMean,pbOccP99,"
        "wpqCoalesced,suppressedWrites,persistSamples,persistP50,"
        "persistP99,persistP999,persistMax,serveRequests\n"
        "serve:kv-zipf,baseline,rp,4,1,100,44444,676,0,0,0,0,91392,0,0,0,"
        "0,0,0,0,0,0,0,38,0,357,0,0,0,0,400\n"
        "serve:kv-zipf,hops,rp,4,1,100,43928,676,0,44982,0,89250,0,714,"
        "1075,0,0,0,0,0,0,0.265947,1,38,0,357,248,248,248,250,400\n"
        "serve:kv-zipf,asap,rp,4,1,100,46172,685,231,0,0,98572,0,1071,"
        "1075,0,357,352,5,0,4,0.504899,2,381,0,357,272,272,272,284,400\n"
        "serve:kv-zipf,eadr,rp,4,1,100,22776,659,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,0,0,412,0,357,4,4,4,4,400\n";
    EXPECT_EQ(pinnedCsv(runSweep(spec, opt)), expected);
}

TEST_F(MediaTest, SkiplistCrashVerdictsPinned)
{
    CampaignSpec spec;
    spec.workloads = {"skiplist"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Epoch},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.params = params30();
    spec.ticksPerConfig = 5;

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const CampaignResult cr = runCampaign(spec, opt);
    EXPECT_TRUE(cr.allConsistent());
    const std::string expected =
        "workload,model,persistency,cores,seed,opsPerThread,runTicks,"
        "pmWrites,pmReads,cyclesBlocked,cyclesStalled,dfenceStalled,"
        "sfenceStalled,entriesInserted,epochs,crossDeps,totSpecWrites,"
        "totalUndo,totalDelay,nacks,rtMaxOccupancy,pbOccMean,pbOccP99,"
        "wpqCoalesced,suppressedWrites,kind,crashTick,actualTick,"
        "consistent,committedMax,storesLogged,linesSurvived,undoReplayed,"
        "adrDrainWrites,message\n"
        "skiplist,asap,ep,4,1,30,8019,72,30,0,0,0,0,157,268,88,125,76,47,"
        "0,9,1.03631,12,74,0,crash,8019,8019,1,73,191,43,2,4,\"\"\n"
        "skiplist,asap,ep,4,1,30,16038,182,74,0,0,0,0,362,565,180,303,"
        "185,118,0,12,1.0904,13,178,0,crash,16038,16038,1,154,447,96,0,0,"
        "\"\"\n"
        "skiplist,asap,ep,4,1,30,24057,262,102,0,0,0,0,525,829,265,416,"
        "261,155,0,12,0.974545,12,251,0,crash,24057,24057,1,223,627,144,"
        "0,8,\"\"\n"
        "skiplist,asap,ep,4,1,30,32076,338,126,0,0,0,0,666,1072,345,519,"
        "329,190,0,12,0.915909,11,318,0,crash,32076,32076,1,283,791,182,"
        "2,4,\"\"\n"
        "skiplist,asap,ep,4,1,30,40096,425,157,0,0,1110,0,832,1328,423,"
        "639,405,234,0,12,0.900985,11,398,0,crash,40096,40096,1,353,975,"
        "231,0,4,\"\"\n"
        "skiplist,asap,rp,4,1,30,8019,72,30,0,0,0,0,157,117,25,125,76,47,"
        "0,9,1.03631,12,74,0,crash,8019,8019,1,33,191,43,2,4,\"\"\n"
        "skiplist,asap,rp,4,1,30,16038,182,74,0,0,0,0,362,253,48,303,185,"
        "118,0,12,1.0904,13,178,0,crash,16038,16038,1,70,447,96,0,0,"
        "\"\"\n"
        "skiplist,asap,rp,4,1,30,24057,262,102,0,0,0,0,525,372,73,416,"
        "261,155,0,12,0.974545,12,251,0,crash,24057,24057,1,103,627,144,"
        "0,8,\"\"\n"
        "skiplist,asap,rp,4,1,30,32076,338,126,0,0,0,0,666,477,95,519,"
        "329,190,0,12,0.915909,11,318,0,crash,32076,32076,1,125,791,182,"
        "2,4,\"\"\n"
        "skiplist,asap,rp,4,1,30,40096,425,157,0,0,1110,0,832,601,119,"
        "639,405,234,0,12,0.900985,11,398,0,crash,40096,40096,1,156,975,"
        "231,0,4,\"\"\n";
    EXPECT_EQ(pinnedCsv(cr.sweep), expected);
}

/**
 * Outputs pinned under eviction pressure. At Table II sizes a 30-op
 * run never evicts from the 16 MB LLC or the 4096-line XPBuffer, so
 * the rows above would pass with any victim choice. Here every cache
 * level, the XPBuffer, the WPQ and the recovery table are a few
 * entries deep (`asap_run queue model=asap` with these knobs at its
 * default 200 ops: 906 dirty LLC evictions, 241 of them Bloom-delayed,
 * 1,426 NACKs, 152/345 XPBuffer hits/misses), and the slow-nvm rows
 * put the xpHits/xpMisses columns in the CSV. Captured before the tag
 * arrays, the XPBuffer and the directory moved to flat storage.
 */
TEST_F(MediaTest, SmallCachesAndXpBufferPinnedUnderEviction)
{
    SweepSpec spec;
    spec.workloads = {"cceh", "queue"};
    spec.mediaProfiles = {kDefaultMediaProfile, "slow-nvm"};
    spec.models = {{ModelKind::Baseline, PersistencyModel::Release},
                   {ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Epoch},
                   {ModelKind::Asap, PersistencyModel::Release},
                   {ModelKind::Eadr, PersistencyModel::Release}};
    spec.params = params30();
    for (const char *o : {"l1Sets=4", "l2Sets=8", "llcSets=16", "llcWays=2",
                          "xpBufferLines=8", "wpqEntries=4", "rtEntries=4"})
        spec.base.override(o);

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;
    const std::string expected =
        "workload,model,persistency,cores,media,seed,opsPerThread,runTicks,"
        "pmWrites,pmReads,cyclesBlocked,cyclesStalled,dfenceStalled,"
        "sfenceStalled,entriesInserted,epochs,crossDeps,totSpecWrites,"
        "totalUndo,totalDelay,nacks,rtMaxOccupancy,pbOccMean,pbOccP99,"
        "wpqCoalesced,suppressedWrites,xpHits,xpMisses,mediaBytesWritten,"
        "mediaQueueDelayTicks,mediaBankBusyTicks\n"
        "cceh,baseline,rp,4,paper-table2,1,30,123987,110,0,0,0,0,14080,0,0,0,"
        "0,0,0,0,0,0,0,0,0,0,0,7040,0,19800\n"
        "cceh,hops,rp,4,paper-table2,1,30,120229,117,0,11734,0,2128,0,160,319,"
        "95,0,0,0,0,0,0.0389773,1,43,0,0,0,7488,0,21060\n"
        "cceh,asap,ep,4,paper-table2,1,30,119429,142,16,0,0,1060,0,220,572,"
        "174,24,22,2,0,2,0.029792,1,78,0,6,16,9088,0,25560\n"
        "cceh,asap,rp,4,paper-table2,1,30,119429,142,13,0,0,1060,0,220,319,95,"
        "20,19,1,0,2,0.029792,1,78,0,6,13,9088,0,25560\n"
        "cceh,eadr,rp,4,paper-table2,1,30,119153,114,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,0,0,106,0,0,0,7296,0,20520\n"
        "cceh,baseline,rp,4,slow-nvm,1,30,258887,110,0,0,0,0,14080,0,0,0,0,0,"
        "0,0,0,0,0,0,0,0,0,7040,0,132000\n"
        "cceh,hops,rp,4,slow-nvm,1,30,255259,117,0,7238,0,2146,0,201,319,95,0,"
        "0,0,0,0,0.0190648,1,84,0,0,0,7488,184,140584\n"
        "cceh,asap,ep,4,slow-nvm,1,30,254459,117,14,0,0,1060,0,220,572,174,23,"
        "21,2,0,2,0.0139701,1,103,0,6,14,7488,177,140577\n"
        "cceh,asap,rp,4,slow-nvm,1,30,254459,117,12,0,0,1060,0,220,319,95,20,"
        "19,1,0,2,0.0139701,1,103,0,6,12,7488,177,140577\n"
        "cceh,eadr,rp,4,slow-nvm,1,30,254183,112,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,108,0,0,0,7168,183,134583\n"
        "queue,baseline,rp,4,paper-table2,1,30,79284,376,0,0,0,0,46848,0,0,0,"
        "0,0,0,0,0,0,0,56,0,0,0,24064,0,67680\n"
        "queue,hops,rp,4,paper-table2,1,30,87251,401,0,333027,0,72293,0,434,"
        "609,119,0,0,0,0,0,17.2292,27,33,0,0,0,25664,0,72180\n"
        "queue,asap,ep,4,paper-table2,1,30,39577,374,65,120788,0,8784,0,475,"
        "1592,551,396,156,45,193,4,4.82604,10,48,39,78,65,23936,0,67320\n"
        "queue,asap,rp,4,paper-table2,1,30,43801,368,41,143667,0,32168,0,463,"
        "609,119,334,111,25,198,4,11.5464,26,44,46,63,41,23552,0,66240\n"
        "queue,eadr,rp,4,paper-table2,1,30,32440,390,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,0,0,291,0,0,0,24960,0,70200\n"
        "queue,baseline,rp,4,slow-nvm,1,30,128819,314,0,0,0,0,93683,0,0,0,0,0,"
        "0,0,0,0,0,118,0,0,0,20096,0,376800\n"
        "queue,hops,rp,4,slow-nvm,1,30,128730,312,0,491573,0,109722,0,434,609,"
        "119,0,0,0,0,0,17.6374,27,122,0,0,0,19968,0,374400\n"
        "queue,asap,ep,4,slow-nvm,1,30,107424,267,51,371556,0,21284,0,456,"
        "1592,551,354,130,39,183,4,6.00354,13,131,49,39,51,17088,46,320446\n"
        "queue,asap,rp,4,slow-nvm,1,30,112086,271,37,410665,0,80446,0,447,609,"
        "119,272,88,16,168,4,16.3624,27,135,37,23,37,17344,130,325330\n"
        "queue,eadr,rp,4,slow-nvm,1,30,35140,273,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,408,0,0,0,17472,2,327602\n";
    EXPECT_EQ(pinnedCsv(runSweep(spec, opt)), expected);
}

TEST_F(MediaTest, DistinctProfilesYieldDistinctJobKeys)
{
    std::vector<std::string> keys;
    for (const MediaProfileInfo &info : allMediaProfiles()) {
        ExperimentJob job;
        job.workload = "queue";
        job.cfg.mediaProfile = info.name;
        job.params = params30();
        keys.push_back(jobKey(job));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j])
                << allMediaProfiles()[i].name << " aliases "
                << allMediaProfiles()[j].name;
    }
    // Overrides reach the key too.
    ExperimentJob job;
    job.workload = "queue";
    job.params = params30();
    const std::string base = jobKey(job);
    job.cfg.mediaWriteGBps = 3.0;
    EXPECT_NE(jobKey(job), base);
}

TEST_F(MediaTest, TwoProfileSweepDeterministicAcrossJobCounts)
{
    SweepSpec spec;
    spec.workloads = {"queue", "echo"};
    spec.mediaProfiles = {kDefaultMediaProfile, "slow-nvm"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.params = params30();
    ASSERT_EQ(spec.jobCount(), 4u);
    std::vector<ExperimentJob> jobs = spec.expand();
    jobs.push_back(heteroServeJob());

    ResultCache serialCache, parallelCache;
    RunOptions serial;
    serial.jobs = 1;
    serial.cache = &serialCache;
    RunOptions parallel;
    parallel.jobs = 8;
    parallel.cache = &parallelCache;

    const SweepResult s = runJobs(jobs, serial);
    const SweepResult p = runJobs(jobs, parallel);
    ASSERT_EQ(s.results.size(), 5u);
    ASSERT_EQ(s.results.size(), p.results.size());
    for (std::size_t i = 0; i < s.results.size(); ++i) {
        EXPECT_EQ(s.at(i).media, p.at(i).media);
        EXPECT_EQ(s.at(i).runTicks, p.at(i).runTicks);
        EXPECT_EQ(s.at(i).pmWrites, p.at(i).pmWrites);
        EXPECT_EQ(s.at(i).mediaBytesWritten, p.at(i).mediaBytesWritten);
        EXPECT_EQ(s.at(i).mediaQueueDelayTicks,
                  p.at(i).mediaQueueDelayTicks);
        EXPECT_EQ(s.at(i).mediaBankBusyTicks,
                  p.at(i).mediaBankBusyTicks);
        EXPECT_EQ(s.at(i).xpHits, p.at(i).xpHits);
        EXPECT_EQ(s.at(i).xpMisses, p.at(i).xpMisses);
        EXPECT_EQ(s.at(i).serveRequests, p.at(i).serveRequests);
        EXPECT_EQ(s.at(i).persistP99, p.at(i).persistP99);
    }
    EXPECT_EQ(s.at(4).media, "paper-table2+cxl-dram");
    EXPECT_GT(s.at(4).serveRequests, 0u);

    // The media actually matters: the bandwidth-starved profile is
    // slower than the paper's on the write-heavy queue workload, and
    // only media columns distinguish the two — same workload, model
    // and cores.
    EXPECT_EQ(s.at(0).media, std::string(kDefaultMediaProfile));
    EXPECT_EQ(s.at(1).media, "slow-nvm");
    EXPECT_NE(s.at(0).runTicks, s.at(1).runTicks);
}

TEST_F(MediaTest, MediaColumnsAppearOnlyWithNonDefaultProfiles)
{
    SweepSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.params = params30();

    ResultCache cache;
    RunOptions opt;
    opt.cache = &cache;

    const SweepResult plain = runSweep(spec, opt);
    EXPECT_FALSE(plain.hasNonDefaultMedia());
    std::ostringstream plainCsv, plainJson;
    emitCsv(plainCsv, plain);
    emitJson(plainJson, plain);
    EXPECT_EQ(plainCsv.str().find("media"), std::string::npos);
    EXPECT_EQ(plainJson.str().find("\"media\""), std::string::npos);

    spec.mediaProfiles = {kDefaultMediaProfile, "dram"};
    const SweepResult mixed = runSweep(spec, opt);
    EXPECT_TRUE(mixed.hasNonDefaultMedia());
    std::ostringstream mixedCsv, mixedJson;
    emitCsv(mixedCsv, mixed);
    emitJson(mixedJson, mixed);
    EXPECT_NE(mixedCsv.str().find(",media,"), std::string::npos);
    EXPECT_NE(mixedCsv.str().find("mediaBytesWritten"),
              std::string::npos);
    EXPECT_NE(mixedJson.str().find("\"media\": \"dram\""),
              std::string::npos);
    EXPECT_NE(mixedJson.str().find("\"mediaQueueDelayTicks\""),
              std::string::npos);

    // Per-MC media alone switches them on too, and the row carries
    // the '+'-joined profile list.
    const SweepResult hetero = runJobs({heteroServeJob()}, opt);
    EXPECT_TRUE(hetero.hasNonDefaultMedia());
    std::ostringstream heteroCsv, heteroJson;
    emitCsv(heteroCsv, hetero);
    emitJson(heteroJson, hetero);
    EXPECT_NE(heteroCsv.str().find(",media,"), std::string::npos);
    EXPECT_NE(heteroCsv.str().find(",paper-table2+cxl-dram,"),
              std::string::npos);
    EXPECT_NE(
        heteroJson.str().find("\"media\": \"paper-table2+cxl-dram\""),
        std::string::npos);
}

TEST_F(MediaTest, CacheEntrySurvivesMediaFieldsRoundTrip)
{
    CachedResult e;
    RunResult &r = e.run;
    r.workload = "queue";
    r.model = ModelKind::Asap;
    r.persistency = PersistencyModel::Release;
    r.cores = 4;
    r.media = "cxl-flash";
    r.runTicks = 123456;
    r.xpHits = 17;
    r.xpMisses = 4;
    r.mediaBytesWritten = 8192;
    r.mediaQueueDelayTicks = 999;
    r.mediaBankBusyTicks = 31337;

    CachedResult back;
    ASSERT_TRUE(deserializeEntry(serializeEntry(e), back));
    EXPECT_EQ(back.run.media, r.media);
    EXPECT_EQ(back.run.xpHits, r.xpHits);
    EXPECT_EQ(back.run.xpMisses, r.xpMisses);
    EXPECT_EQ(back.run.mediaBytesWritten, r.mediaBytesWritten);
    EXPECT_EQ(back.run.mediaQueueDelayTicks, r.mediaQueueDelayTicks);
    EXPECT_EQ(back.run.mediaBankBusyTicks, r.mediaBankBusyTicks);
}

TEST_F(MediaTest, CrashCampaignConsistentOnNonDefaultMedia)
{
    CampaignSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.params = params30();
    spec.ticksPerConfig = 8;
    spec.base.mediaProfile = "cxl-flash";

    ResultCache cache;
    RunOptions opt;
    opt.jobs = 2;
    opt.cache = &cache;
    const CampaignResult cr = runCampaign(spec, opt);
    EXPECT_EQ(cr.crashPoints(), 8u);
    EXPECT_TRUE(cr.allConsistent());
    for (const ExperimentJob &j : cr.sweep.jobs)
        EXPECT_EQ(j.cfg.mediaProfile, "cxl-flash");
    // Non-default media shows up in the repro line.
    ASSERT_FALSE(cr.sweep.jobs.empty());
    EXPECT_NE(reproCommand(cr.sweep.jobs.front())
                  .find("--media cxl-flash"),
              std::string::npos);
}

} // namespace
} // namespace asap
