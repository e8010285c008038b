/**
 * @file
 * Robustness sweeps: pathological configurations (tiny buffers and
 * caches, single banks, one or many controllers, line-grained
 * interleave) must still run to completion and, under ASAP, crash
 * consistently.
 * Plus trace serialization round-trips and replay equivalence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/system.hh"
#include "pm/trace_io.hh"
#include "recovery/checker.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

namespace asap
{
namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.opsPerThread = 25;
    p.seed = 4;
    return p;
}

/** One named configuration mutation. */
struct ConfigCase
{
    const char *name;
    const char *override1;
    const char *override2;
};

class PathologicalConfigs : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(PathologicalConfigs, RunsAndCrashesConsistently)
{
    setLogQuiet(true);
    const ConfigCase &c = GetParam();
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.override(c.override1);
    if (c.override2)
        cfg.override(c.override2);
    cfg.maxRunTicks = 2'000'000'000ULL;

    // Liveness.
    {
        System sys(cfg);
        sys.loadTrace(buildTrace("cceh", cfg.numCores, tinyParams()));
        EXPECT_TRUE(sys.run()) << c.name << " deadlocked";
    }
    // Crash consistency.
    {
        System sys(cfg, /*keep_run_log=*/true);
        sys.loadTrace(buildTrace("cceh", cfg.numCores, tinyParams()));
        sys.crashAt(30'000);
        CheckResult r = checkCrashConsistency(
            sys.runLog(), sys.nvm(), sys.committedUpTo());
        EXPECT_TRUE(r.ok) << c.name << ": " << r.message;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PathologicalConfigs,
    ::testing::Values(
        ConfigCase{"oneMc", "numMCs=1", nullptr},
        ConfigCase{"fourMcs", "numMCs=4", nullptr},
        ConfigCase{"lineInterleave", "interleaveBytes=64", nullptr},
        ConfigCase{"tinyWpq", "wpqEntries=2", "nvmBanks=1"},
        ConfigCase{"tinyPb", "pbEntries=4", "pbMaxInflight=1"},
        ConfigCase{"tinyEt", "etEntries=4", nullptr},
        ConfigCase{"tinyRt", "rtEntries=2", nullptr},
        ConfigCase{"noCombine", "wpqCombineWindow=0", nullptr},
        ConfigCase{"slowNvm", "pmWriteLatency=720", nullptr},
        ConfigCase{"noXpBuffer", "xpBufferLines=0", nullptr},
        ConfigCase{"eightCores", "numCores=8", nullptr},
        ConfigCase{"tinyLlc", "llcSets=16", "llcWays=2"},
        ConfigCase{"tinyXpBuffer", "xpBufferLines=2", nullptr}),
    [](const ::testing::TestParamInfo<ConfigCase> &info) {
        return info.param.name;
    });

// ----------------------------------------------------------- trace io

TEST(TraceIo, RoundTripPreservesOps)
{
    setLogQuiet(true);
    WorkloadParams p = tinyParams();
    TraceSet original = buildTrace("echo", 4, p);
    const std::string path = "/tmp/asap_trace_roundtrip.bin";
    saveTrace(original, path);
    TraceSet loaded = loadTrace(path);

    ASSERT_EQ(loaded.threads.size(), original.threads.size());
    for (std::size_t t = 0; t < original.threads.size(); ++t) {
        ASSERT_EQ(loaded.threads[t].size(), original.threads[t].size());
        for (std::size_t i = 0; i < original.threads[t].size(); ++i) {
            const TraceOp &a = original.threads[t][i];
            const TraceOp &b = loaded.threads[t][i];
            EXPECT_EQ(a.type, b.type);
            EXPECT_EQ(a.isPm, b.isPm);
            EXPECT_EQ(a.cycles, b.cycles);
            EXPECT_EQ(a.addr, b.addr);
            EXPECT_EQ(a.value, b.value);
            EXPECT_EQ(a.srcThread, b.srcThread);
            EXPECT_EQ(a.srcRelease, b.srcRelease);
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayOfLoadedTraceIsIdentical)
{
    setLogQuiet(true);
    WorkloadParams p = tinyParams();
    const std::string path = "/tmp/asap_trace_replay.bin";
    saveTrace(buildTrace("p-clht", 4, p), path);

    SimConfig cfg;
    Tick direct = 0, reloaded = 0;
    {
        System sys(cfg);
        sys.loadTrace(buildTrace("p-clht", 4, p));
        ASSERT_TRUE(sys.run());
        direct = sys.runTicks();
    }
    {
        System sys(cfg);
        sys.loadTrace(loadTrace(path));
        ASSERT_TRUE(sys.run());
        reloaded = sys.runTicks();
    }
    EXPECT_EQ(direct, reloaded);
    std::remove(path.c_str());
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    setLogQuiet(true);
    EXPECT_DEATH(loadTrace("/tmp/definitely_missing_asap_trace.bin"),
                 "cannot open");
}

TEST(TraceIoDeath, GarbageFileIsFatal)
{
    setLogQuiet(true);
    const std::string path = "/tmp/asap_trace_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace at all, sorry", f);
    std::fclose(f);
    EXPECT_DEATH(loadTrace(path), "not an ASAP trace");
    std::remove(path.c_str());
}

} // namespace
} // namespace asap
