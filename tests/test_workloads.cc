/**
 * @file
 * Functional tests for the workload data structures (they must be
 * correct key-value stores, not just store generators) and
 * well-formedness properties of every generated trace.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "pm/recorder.hh"
#include "workloads/cceh.hh"
#include "workloads/dash.hh"
#include "workloads/fast_fair.hh"
#include "workloads/kv_util.hh"
#include "workloads/part.hh"
#include "workloads/pclht.hh"
#include "workloads/pmasstree.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

namespace asap
{
namespace
{

// ------------------------------------------------------- kv correctness

template <typename Table>
void
insertSearchRoundTrip(Table &table, unsigned n)
{
    std::unordered_map<std::uint64_t, std::uint64_t> expect;
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t key = makeKey(i);
        const std::uint64_t value = hash64(key) ^ 0x1234;
        table.insert(i % 4, key, value);
        expect[key] = value;
    }
    for (const auto &[key, value] : expect)
        EXPECT_EQ(table.search(0, key), value) << "key " << key;
}

TEST(Cceh, InsertSearch)
{
    TraceRecorder rec(4, 1);
    Cceh table(rec, 2);
    insertSearchRoundTrip(table, 600);
    EXPECT_GT(table.splits(), 0u) << "600 keys must split segments";
}

TEST(Cceh, UpdateInPlace)
{
    TraceRecorder rec(4, 1);
    Cceh table(rec, 2);
    const std::uint64_t key = makeKey(1);
    table.insert(0, key, 1);
    table.insert(1, key, 2);
    EXPECT_EQ(table.search(0, key), 2u);
}

TEST(Cceh, MissingKeyReturnsZero)
{
    TraceRecorder rec(4, 1);
    Cceh table(rec, 2);
    EXPECT_EQ(table.search(0, makeKey(77)), 0u);
}

TEST(Cceh, DirectoryDoubles)
{
    TraceRecorder rec(4, 1);
    Cceh table(rec, 1);
    insertSearchRoundTrip(table, 1500);
    EXPECT_GT(table.globalDepth(), 1u);
}

TEST(Pclht, InsertSearch)
{
    TraceRecorder rec(4, 1);
    Pclht table(rec, 64); // small: forces overflow chains
    insertSearchRoundTrip(table, 500);
    EXPECT_GT(table.chains(), 0u);
}

TEST(Pclht, UpdateInPlace)
{
    TraceRecorder rec(4, 1);
    Pclht table(rec, 64);
    table.insert(0, makeKey(9), 10);
    table.insert(1, makeKey(9), 20);
    EXPECT_EQ(table.search(2, makeKey(9)), 20u);
}

TEST(Pclht, RemoveAndReinsert)
{
    TraceRecorder rec(4, 1);
    Pclht table(rec, 64);
    table.insert(0, makeKey(1), 10);
    table.insert(0, makeKey(2), 20);
    EXPECT_TRUE(table.remove(1, makeKey(1)));
    EXPECT_EQ(table.search(2, makeKey(1)), 0u);
    EXPECT_EQ(table.search(2, makeKey(2)), 20u);
    EXPECT_FALSE(table.remove(1, makeKey(1)));
    table.insert(3, makeKey(1), 11);
    EXPECT_EQ(table.search(0, makeKey(1)), 11u);
}

TEST(FastFair, InsertSearchSplits)
{
    TraceRecorder rec(4, 1);
    FastFair tree(rec);
    insertSearchRoundTrip(tree, 800);
    EXPECT_GT(tree.splits(), 0u);
    EXPECT_GT(tree.height(), 1u);
}

TEST(FastFair, SortedInsertOrderIndependent)
{
    TraceRecorder rec(4, 1);
    FastFair tree(rec);
    // Descending insert order still searches correctly.
    for (int i = 400; i > 0; --i)
        tree.insert(0, makeKey(i), hash64(i));
    for (int i = 1; i <= 400; ++i)
        EXPECT_EQ(tree.search(0, makeKey(i)), hash64(i));
}

TEST(FastFair, RemoveDeletesKeys)
{
    TraceRecorder rec(4, 1);
    FastFair tree(rec);
    for (int i = 0; i < 200; ++i)
        tree.insert(0, makeKey(i), hash64(i));
    for (int i = 0; i < 200; i += 2)
        EXPECT_TRUE(tree.remove(1, makeKey(i)));
    for (int i = 0; i < 200; ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(tree.search(2, makeKey(i)), 0u);
        else
            EXPECT_EQ(tree.search(2, makeKey(i)), hash64(i));
    }
    EXPECT_FALSE(tree.remove(0, makeKey(999)));
}

TEST(FastFair, ScanWalksLeafChain)
{
    TraceRecorder rec(4, 1);
    FastFair tree(rec);
    for (int i = 0; i < 300; ++i)
        tree.insert(0, makeKey(i), makeKey(i) + 1);
    std::vector<std::uint64_t> out;
    const unsigned got = tree.scan(0, 0, 100, out);
    EXPECT_EQ(got, 100u);
    EXPECT_EQ(out.size(), 100u);
    // Values are key+1 in key order, so the series is increasing.
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_GT(out[i], out[i - 1]);
}

TEST(FastFair, ScanBeyondEndReturnsRemainder)
{
    TraceRecorder rec(4, 1);
    FastFair tree(rec);
    for (int i = 0; i < 50; ++i)
        tree.insert(0, makeKey(i), makeKey(i) + 1);
    std::vector<std::uint64_t> out;
    EXPECT_EQ(tree.scan(0, 0, 1000, out), 50u);
}

TEST(DashEh, InsertSearch)
{
    TraceRecorder rec(4, 1);
    DashEh table(rec, 2);
    insertSearchRoundTrip(table, 500);
}

TEST(DashLh, InsertMostlyFound)
{
    TraceRecorder rec(4, 1);
    DashLh table(rec, 64);
    unsigned found = 0;
    const unsigned n = 400;
    for (unsigned i = 0; i < n; ++i)
        table.insert(i % 4, makeKey(i), hash64(i));
    for (unsigned i = 0; i < n; ++i)
        found += table.search(0, makeKey(i)) == hash64(i) ? 1 : 0;
    // Rehash displacement may strand a small fraction outside the
    // probe buckets.
    EXPECT_GE(found, n * 9 / 10);
    EXPECT_GT(table.rehashes(), 0u);
}

TEST(Part, InsertSearch)
{
    TraceRecorder rec(4, 1);
    Part tree(rec);
    insertSearchRoundTrip(tree, 800);
}

TEST(Part, UpdateInPlace)
{
    TraceRecorder rec(4, 1);
    Part tree(rec);
    tree.insert(0, makeKey(5), 1);
    tree.insert(1, makeKey(5), 2);
    EXPECT_EQ(tree.search(0, makeKey(5)), 2u);
}

TEST(Part, GrowsNode16ToNode256)
{
    TraceRecorder rec(4, 1);
    Part tree(rec);
    insertSearchRoundTrip(tree, 3000);
    EXPECT_GT(tree.grows(), 0u);
}

TEST(PMasstree, InsertSearchSplits)
{
    TraceRecorder rec(4, 1);
    PMasstree tree(rec);
    insertSearchRoundTrip(tree, 800);
    EXPECT_GT(tree.splits(), 0u);
}

TEST(PMasstree, UpdateInPlace)
{
    TraceRecorder rec(4, 1);
    PMasstree tree(rec);
    tree.insert(0, makeKey(3), 30);
    tree.insert(1, makeKey(3), 31);
    EXPECT_EQ(tree.search(2, makeKey(3)), 31u);
}

// --------------------------------------------------------- registry

TEST(Registry, HasAllTableIIIWorkloads)
{
    const auto &all = allWorkloads();
    EXPECT_EQ(all.size(), 14u);
    EXPECT_NO_THROW(findWorkload("cceh"));
    EXPECT_NO_THROW(findWorkload("p-masstree"));
}

TEST(RegistryDeath, UnknownWorkloadFatal)
{
    EXPECT_DEATH(findWorkload("nope"), "unknown workload");
}

// ------------------------------------------- trace well-formedness

class TraceWellFormed : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TraceWellFormed, Invariants)
{
    setLogQuiet(true);
    WorkloadParams p;
    p.opsPerThread = 40;
    const unsigned threads = 4;
    TraceSet ts = buildTrace(GetParam(), threads, p);
    ASSERT_EQ(ts.threads.size(), threads);

    std::set<std::uint64_t> tokens;
    std::vector<std::uint64_t> releases(threads, 0);

    // First pass: count releases per thread.
    for (unsigned t = 0; t < threads; ++t) {
        for (const TraceOp &op : ts.threads[t]) {
            if (op.type == OpType::Release)
                ++releases[t];
        }
    }

    for (unsigned t = 0; t < threads; ++t) {
        const auto &ops = ts.threads[t];
        ASSERT_FALSE(ops.empty());
        EXPECT_EQ(ops.back().type, OpType::End);
        int lock_depth = 0;
        unsigned pm_stores = 0;
        for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
            const TraceOp &op = ops[i];
            EXPECT_NE(op.type, OpType::End) << "End only at the end";
            switch (op.type) {
              case OpType::Store:
                if (op.isPm) {
                    ++pm_stores;
                    EXPECT_NE(op.value, 0u);
                    EXPECT_TRUE(tokens.insert(op.value).second)
                        << "duplicate store token";
                    EXPECT_TRUE(isPmAddr(op.addr));
                }
                break;
              case OpType::Load:
                if (op.isPm) {
                    EXPECT_TRUE(isPmAddr(op.addr));
                }
                break;
              case OpType::Acquire:
                ++lock_depth;
                if (op.srcThread >= 0) {
                    ASSERT_LT(static_cast<unsigned>(op.srcThread),
                              threads);
                    EXPECT_GE(op.srcRelease, 1u);
                    EXPECT_LE(op.srcRelease,
                              releases[static_cast<unsigned>(
                                  op.srcThread)])
                        << "edge to a release that never happens";
                }
                break;
              case OpType::Release:
                --lock_depth;
                EXPECT_GE(lock_depth, 0);
                break;
              case OpType::Compute:
                EXPECT_GT(op.cycles, 0u);
                break;
              default:
                break;
            }
        }
        EXPECT_EQ(lock_depth, 0) << "unbalanced locks on thread " << t;
        EXPECT_GT(pm_stores, 0u) << "every workload writes PM";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceWellFormed,
    ::testing::Values("nstore", "echo", "vacation", "memcached",
                      "heap", "queue", "skiplist", "cceh", "fast_fair",
                      "dash-lh", "dash-eh", "p-art", "p-clht",
                      "p-masstree"));

TEST(Synthetic, BandwidthAlternatesMcs)
{
    TraceRecorder rec(1, 1);
    genBandwidthMicrobench(rec, 8);
    TraceSet ts = rec.finish();
    // Each burst is 4 lines in one 256 B grain; consecutive bursts
    // land on different controllers under the default interleave.
    std::vector<std::uint64_t> grains;
    for (const TraceOp &op : ts.threads[0]) {
        if (op.type == OpType::Store)
            grains.push_back(lineOf(op.addr) / 4);
    }
    ASSERT_GE(grains.size(), 8u);
    EXPECT_NE(grains[0] % 2, grains[4] % 2)
        << "consecutive bursts alternate controllers";
}

TEST(Synthetic, DeterministicForSameSeed)
{
    WorkloadParams p;
    p.opsPerThread = 20;
    TraceSet a = buildTrace("cceh", 4, p);
    TraceSet b = buildTrace("cceh", 4, p);
    ASSERT_EQ(a.totalOps(), b.totalOps());
    for (unsigned t = 0; t < 4; ++t) {
        for (std::size_t i = 0; i < a.threads[t].size(); ++i) {
            EXPECT_EQ(a.threads[t][i].type, b.threads[t][i].type);
            EXPECT_EQ(a.threads[t][i].addr, b.threads[t][i].addr);
        }
    }
}

} // namespace
} // namespace asap
