/**
 * @file
 * On-disk TraceSet record/replay tests (the ASAP_TRACE_DIR tier).
 *
 * Clearing the in-process memoisation between runs simulates a fresh
 * process (a new sweep invocation) pointed at the same directory: the
 * second run must replay the recorded trace byte-identically, and
 * damaged or mismatched files must be rejected loudly and regenerated
 * silently correct.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/cache.hh"
#include "harness/runner.hh"
#include "pm/trace_io.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

using namespace asap;
namespace fs = std::filesystem;

namespace
{

/** A result's cache-entry text: equal texts, equal cached fields. */
std::string
entryText(const RunResult &r)
{
    CachedResult e;
    e.run = r;
    return serializeEntry(e);
}

class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setLogQuiet(false); // the regeneration warning must be visible
        dir = fs::path(::testing::TempDir()) /
              ("asap_trace_" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()));
        fs::remove_all(dir);
        clearTraceCache();
        setTraceDirectory(dir.string());
    }

    void
    TearDown() override
    {
        setTraceDirectory("");
        clearTraceCache();
        fs::remove_all(dir);
        setLogQuiet(true);
    }

    WorkloadParams
    params() const
    {
        WorkloadParams p;
        p.opsPerThread = 20;
        return p;
    }

    RunResult
    runOnce() const
    {
        return runExperiment("cceh", ModelKind::Asap,
                             PersistencyModel::Release, 2, params());
    }

    /** The single trace file a runOnce() leaves in the directory. */
    fs::path
    traceFile() const
    {
        fs::path found;
        for (const auto &e : fs::directory_iterator(dir)) {
            if (e.path().extension() == ".bin") {
                EXPECT_TRUE(found.empty())
                    << "more than one trace file in " << dir;
                found = e.path();
            }
        }
        EXPECT_FALSE(found.empty()) << "no trace file in " << dir;
        return found;
    }

    /** The generation key embedded in a version-2 trace file: a
     *  24-byte header (magic, version, key length, thread count,
     *  checksum), then the key bytes. */
    static std::string
    embeddedKey(const fs::path &file)
    {
        std::ifstream f(file, std::ios::binary);
        std::uint32_t head[4] = {};
        f.read(reinterpret_cast<char *>(head), sizeof(head));
        f.seekg(24);
        std::string key(head[2], '\0');
        f.read(key.data(), static_cast<std::streamsize>(key.size()));
        return key;
    }

    fs::path dir;
};

TEST_F(TraceCacheTest, ColdRecordsWarmReplaysByteIdentically)
{
    const RunResult cold = runOnce();
    TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    const fs::path file = traceFile();
    EXPECT_GT(fs::file_size(file), sizeof(std::uint64_t));

    // "New process": drop the in-process memo, keep the directory.
    clearTraceCache();
    const RunResult warm = runOnce();
    s = traceCacheStats();
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.diskHits, 1u);

    // Everything deterministic round-trips exactly (hostNs is not in
    // the serialization, by design — it never matches across runs).
    EXPECT_EQ(entryText(cold), entryText(warm));
    EXPECT_EQ(cold.eventsExecuted, warm.eventsExecuted);
    EXPECT_GT(warm.eventsExecuted, 0u);
    EXPECT_GT(warm.hostNs, 0u); // the simulation itself still ran
}

TEST_F(TraceCacheTest, RepeatedRunsInOneProcessUseTheMemo)
{
    runOnce();
    runOnce();
    const TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.diskHits, 0u); // memo beats the disk tier
}

TEST_F(TraceCacheTest, TruncatedFileWarnsAndRegenerates)
{
    const RunResult good = runOnce();
    const fs::path file = traceFile();
    const auto full_size = fs::file_size(file);
    fs::resize_file(file, 10); // chop through the header

    clearTraceCache();
    ::testing::internal::CaptureStderr();
    const RunResult redone = runOnce();
    const std::string log = ::testing::internal::GetCapturedStderr();

    EXPECT_NE(log.find("regenerating"), std::string::npos) << log;
    const TraceCacheStats s = traceCacheStats();
    EXPECT_EQ(s.misses, 1u);  // counted as a generation, not a replay
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(entryText(good), entryText(redone));
    // The regeneration rewrote the file, restoring the tier.
    EXPECT_EQ(fs::file_size(file), full_size);
    clearTraceCache();
    runOnce();
    EXPECT_EQ(traceCacheStats().diskHits, 1u);
}

TEST_F(TraceCacheTest, CorruptPayloadWarnsAndRegenerates)
{
    const RunResult good = runOnce();
    const fs::path file = traceFile();
    {
        // Flip bytes in the middle of the op payload: the checksum
        // must catch it.
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(fs::file_size(file) / 2));
        const char junk[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
        f.write(junk, sizeof(junk));
    }
    clearTraceCache();
    ::testing::internal::CaptureStderr();
    const RunResult redone = runOnce();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("regenerating"), std::string::npos) << log;
    EXPECT_NE(log.find("checksum"), std::string::npos) << log;
    EXPECT_EQ(entryText(good), entryText(redone));
}

TEST_F(TraceCacheTest, ParameterKeyMismatchRegenerates)
{
    const RunResult good = runOnce();
    const fs::path file = traceFile();
    // Overwrite with a structurally valid file recorded under a
    // different generation key (a stale hash-collision stand-in).
    const TraceSet other = buildTrace("cceh", 2, params());
    ASSERT_TRUE(saveTraceAtomic(other, file.string(), "bogus-key"));

    clearTraceCache();
    ::testing::internal::CaptureStderr();
    const RunResult redone = runOnce();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("regenerating"), std::string::npos) << log;
    EXPECT_NE(log.find("key mismatch"), std::string::npos) << log;
    EXPECT_EQ(entryText(good), entryText(redone));
}

TEST_F(TraceCacheTest, StaleCodeSaltRegenerates)
{
    // Trace keys carry the code salt, so a file recorded by a build
    // with another salt is regenerated, not replayed.
    const RunResult good = runOnce();
    const fs::path file = traceFile();
    const std::string key = embeddedKey(file);
    const std::string salt = cacheCodeSalt();
    const std::size_t at = key.find(salt);
    ASSERT_NE(at, std::string::npos) << key;

    std::string staleKey = key;
    staleKey.replace(at, salt.size(), "asap-sim-v0");
    const TraceSet stale = buildTrace("cceh", 2, params());
    ASSERT_TRUE(saveTraceAtomic(stale, file.string(), staleKey));

    clearTraceCache();
    ::testing::internal::CaptureStderr();
    const RunResult redone = runOnce();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("regenerating"), std::string::npos) << log;
    EXPECT_NE(log.find("key mismatch"), std::string::npos) << log;
    EXPECT_EQ(traceCacheStats().diskHits, 0u);
    EXPECT_EQ(entryText(good), entryText(redone));
    EXPECT_EQ(embeddedKey(file), key); // rewritten under this salt
}

TEST_F(TraceCacheTest, UnsupportedVersionWarnsAndRegenerates)
{
    runOnce();
    const fs::path file = traceFile();
    {
        // Valid magic, absurd version, zero-padded remainder.
        std::ofstream f(file, std::ios::binary | std::ios::trunc);
        const std::uint32_t magic = 0x41534150, version = 99;
        f.write(reinterpret_cast<const char *>(&magic), 4);
        f.write(reinterpret_cast<const char *>(&version), 4);
        const char zeros[16] = {};
        f.write(zeros, sizeof(zeros));
    }
    clearTraceCache();
    ::testing::internal::CaptureStderr();
    runOnce();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("regenerating"), std::string::npos) << log;
    EXPECT_NE(log.find("version"), std::string::npos) << log;
}

TEST_F(TraceCacheTest, MissingFileIsASilentMiss)
{
    // An empty directory is the normal cold state: no warning.
    ::testing::internal::CaptureStderr();
    runOnce();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(log.find("regenerating"), std::string::npos) << log;
    EXPECT_EQ(traceCacheStats().misses, 1u);
}

} // namespace
