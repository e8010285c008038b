/**
 * @file
 * Seeded mutation tests for the parsers of on-disk state that other
 * processes write: result-cache entries and trace files. A damaged
 * file must be rejected with a reason (the disk tier then
 * re-simulates or regenerates), never take the process down. Each
 * mutant applies one to three edits — truncation, bit flip,
 * random-byte insertion, plausible-byte replacement — to a known-good
 * serialization; whatever the parser accepts must round-trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/cache.hh"
#include "pm/trace_io.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "workloads/registry.hh"

namespace asap
{
namespace
{

constexpr std::size_t kMutants = 2000;

/** Bytes a hand edit or a torn write plausibly leaves in a text
 *  record: digits, separators, signs and letters of field names and
 *  enum values (so "asap" can become "asbp" or "as p"). */
constexpr char kPlausible[] = "0123456789 \n-.+xefabdprsmnuv_";

std::string
mutate(const std::string &text, Rng &rng)
{
    std::string m = text;
    const unsigned edits = static_cast<unsigned>(rng.range(1, 3));
    for (unsigned e = 0; e < edits && !m.empty(); ++e) {
        const std::size_t at = rng.below(m.size());
        switch (rng.below(4)) {
          case 0: // truncation
            m.resize(at);
            break;
          case 1: // bit flip
            m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
            break;
          case 2: // random-byte insertion
            m.insert(at, 1, static_cast<char>(rng.below(256)));
            break;
          default: // plausible-byte replacement
            m[at] = kPlausible[rng.below(sizeof(kPlausible) - 1)];
            break;
        }
    }
    return m;
}

CachedResult
samplePermuteEntry()
{
    CachedResult e;
    e.kind = JobKind::Permute;
    RunResult &r = e.run;
    r.workload = "cceh";
    r.model = ModelKind::Asap;
    r.persistency = PersistencyModel::Epoch;
    r.cores = 4;
    r.runTicks = 123456;
    r.pmWrites = 789;
    r.epochs = 42;
    r.pbOccMean = 3.25;
    r.media = "cxl-dram";
    r.persistP99 = 512;
    CrashVerdict &v = e.verdict;
    v.consistent = false;
    v.message = "epoch 3 of thread 1 visible without epoch 2";
    v.crashTick = 100000;
    v.actualTick = 100004;
    v.committedUpTo = {3, 5, 0, 7};
    v.storesLogged = 611;
    v.statesChecked = 4096;
    v.statesReachable = 8192;
    v.distinctStates = 1024;
    v.permuteAtoms = 13;
    v.truncated = true;
    v.inconsistentStates = 2;
    v.firstBadState = "2a";
    return e;
}

TEST(CodecFuzz, CacheEntryMutantsRejectOrRoundTrip)
{
    const std::string text = serializeEntry(samplePermuteEntry());
    CachedResult parsed;
    ASSERT_TRUE(deserializeEntry(text, parsed));

    Rng rng(0xca5e);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kMutants; ++i) {
        const std::string m = mutate(text, rng);
        CachedResult e;
        std::string why;
        if (deserializeEntry(m, e, &why)) {
            ++accepted;
            CachedResult again;
            EXPECT_TRUE(deserializeEntry(serializeEntry(e), again, &why))
                << "mutant " << i << ": " << why;
        } else {
            EXPECT_FALSE(why.empty()) << "mutant " << i;
        }
    }
    // Both outcomes occur, so the mutants really reach the parser.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, kMutants);
}

TEST(CodecFuzz, TraceFileMutantsRejectOrRoundTrip)
{
    setLogQuiet(true);
    WorkloadParams p;
    p.opsPerThread = 10;
    const TraceSet original = buildTrace("queue", 4, p);
    const std::string key = "queue-fuzz-key";
    const std::string path =
        (std::filesystem::temp_directory_path() / "asap_trace_fuzz.bin")
            .string();
    ASSERT_TRUE(saveTraceAtomic(original, path, key));
    std::ostringstream image;
    image << std::ifstream(path, std::ios::binary).rdbuf();
    const std::string text = image.str();

    const auto check = [&](const std::string &m, const std::string &what) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << m;
        TraceSet loaded;
        std::string why;
        if (tryLoadTraceForKey(path, key, loaded, &why)) {
            EXPECT_TRUE(loaded.threads == original.threads) << what;
        } else {
            EXPECT_FALSE(why.empty()) << what;
        }
    };
    // Every single-bit flip of the 24-byte header, thread count
    // included (the checksum covers only the body)...
    for (unsigned bit = 0; bit < 24 * 8; ++bit) {
        std::string m = text;
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1u << (bit % 8)));
        check(m, "header bit " + std::to_string(bit));
    }
    // ...and seeded edits anywhere in the file.
    Rng rng(0x7ace);
    for (std::size_t i = 0; i < kMutants; ++i)
        check(mutate(text, rng), "mutant " + std::to_string(i));
    std::filesystem::remove(path);
}

} // namespace
} // namespace asap
