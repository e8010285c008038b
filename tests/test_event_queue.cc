/**
 * @file
 * Event-kernel determinism and allocation-behaviour tests.
 *
 * The kernel's ordering contract — events execute in (tick, scheduling
 * sequence) order, whoever scheduled them and from wherever — is what
 * makes every simulation deterministic, so it gets hammered here with
 * randomized schedules. The allocation tests pin down the "zero heap
 * allocation in steady state" property the kernel advertises, via the
 * global operator-new hook at the bottom of this file.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

using namespace asap;

/** Calls into the replaced global operator new (defined below). */
static std::atomic<std::uint64_t> g_newCalls{0};

// ASan supplies its own operator new/delete. Beside this hook, memory
// from an overload the hook leaves alone (the nothrow new behind
// std::stable_partition's buffer) reaches the replaced delete and so
// free(), which ASan reports as an alloc-dealloc mismatch. The hook and
// the two tests that read it are therefore compiled out under ASan.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAllocHook = false;
#else
constexpr bool kAllocHook = true;
#endif

namespace
{

// ------------------------------------------------------ determinism

TEST(EventQueueOrder, SameTickRespectsSchedulingOrderAcrossSources)
{
    // Events landing on one tick from different "components" (plain
    // schedule calls and callbacks scheduling more work) must run in
    // the order the schedule calls were made.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() {
        order.push_back(0);
        // Scheduled mid-tick: sequence-numbered after everything
        // already queued for tick 10, so it runs last of the three.
        eq.schedule(10, [&]() { order.push_back(2); });
    });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueOrder, RunLimitIsInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&]() { ++fired; });
    eq.schedule(51, [&]() { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);        // the event *at* the limit runs
    EXPECT_EQ(eq.now(), 50u);   // time stops exactly at the limit
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueOrder, RunLimitBetweenEventsAdvancesToLimit)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.schedule(90, []() {});
    EXPECT_FALSE(eq.run(40));
    EXPECT_EQ(eq.now(), 40u);
    // Resuming with a later limit picks up where the first stopped.
    EXPECT_TRUE(eq.run(90));
    EXPECT_EQ(eq.now(), 90u);
}

TEST(EventQueueOrder, RandomizedScheduleMatchesReferenceOrder)
{
    // Feed the heap random tick patterns (many collisions) and verify
    // the executed order is exactly lexicographic in (tick, seq) —
    // i.e. it matches a stable sort of the schedule calls. Events also
    // schedule follow-ups from inside callbacks, which must slot into
    // the same total order.
    std::mt19937 rng(12345);
    for (int trial = 0; trial < 20; ++trial) {
        EventQueue eq;
        std::uint64_t seq = 0;
        // (when, seq) of each event, appended at execution time.
        std::vector<std::pair<Tick, std::uint64_t>> got;

        std::uniform_int_distribution<Tick> tick(0, 40);
        std::uniform_int_distribution<int> coin(0, 3);

        // The recursive scheduler: each event may spawn a follow-up.
        struct Ctx
        {
            EventQueue *eq;
            std::mt19937 *rng;
            std::uint64_t *seq;
            std::vector<std::pair<Tick, std::uint64_t>> *got;
            std::uniform_int_distribution<int> *coin;
        } ctx{&eq, &rng, &seq, &got, &coin};

        struct Spawner
        {
            static void
            add(Ctx &c, Tick when)
            {
                const std::uint64_t my_seq = (*c.seq)++;
                Ctx *cp = &c;
                c.eq->schedule(when, [cp, when, my_seq]() {
                    cp->got->emplace_back(when, my_seq);
                    if ((*cp->coin)(*cp->rng) == 0) {
                        std::uniform_int_distribution<Tick> d(0, 5);
                        add(*cp, cp->eq->now() + d(*cp->rng));
                    }
                });
            }
        };

        for (int i = 0; i < 300; ++i)
            Spawner::add(ctx, tick(rng));
        eq.run();

        ASSERT_EQ(got.size(), seq);
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()))
            << "trial " << trial << ": execution order violates "
            << "(tick, seq) lexicographic order";
    }
}

TEST(EventQueueOrder, ClearReportsDroppedCountAndKeepsExecuted)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() { ++fired; });
    eq.schedule(2, [&]() { ++fired; });
    eq.schedule(3, [&]() { ++fired; });
    eq.step();
    EXPECT_EQ(eq.clear(), 2u);
    EXPECT_EQ(eq.clear(), 0u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_TRUE(eq.run());
}

// ------------------------------------------------------- tie-break

/**
 * Core<->MC ping-pong graph: two MCs, four chains each starting at
 * ticks 0/3/3/6, every hop 5 ticks, three round trips per chain. Same
 * tick ties abound between chains and between core and MC events, so
 * the recorded global (tick, chain tag) order pins the kernel's
 * tie-break rule: sequence keys are minted from the *creator*
 * domain's send counter, (counter << 6) | creator.
 */
struct PingPong
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> order;

    PingPong()
    {
        int tag = 0;
        for (unsigned mc = 0; mc < 2; ++mc)
            for (Tick t : {Tick{0}, Tick{3}, Tick{3}, Tick{6}}) {
                const int id = tag++;
                eq.scheduleIn(EventQueue::kCoreDomain, t,
                              [this, mc, id] { coreHop(mc, 3, id); });
            }
    }

    void
    coreHop(unsigned mc, int depth, int tag)
    {
        order.emplace_back(eq.now(), tag);
        eq.scheduleAfterIn(EventQueue::mcDomain(mc), 5,
                           [this, mc, depth, tag] {
                               mcHop(mc, depth - 1, tag);
                           });
    }

    void
    mcHop(unsigned mc, int depth, int tag)
    {
        order.emplace_back(eq.now(), tag);
        if (depth > 0)
            eq.scheduleAfterIn(EventQueue::kCoreDomain, 5,
                               [this, mc, depth, tag] {
                                   coreHop(mc, depth, tag);
                               });
    }
};

/** The ping-pong graph's execution order under per-creator keys.
 *  A plain global counter would run tick 13 as 1,2,5,6 instead of
 *  1,5,2,6 (and likewise at 18, 23 and 28). */
const std::vector<std::pair<Tick, int>> kPingPongOrder = {
    {0, 0},  {0, 4},  {3, 1},  {3, 2},  {3, 5},  {3, 6},  {5, 0},
    {5, 4},  {6, 3},  {6, 7},  {8, 1},  {8, 2},  {8, 5},  {8, 6},
    {10, 0}, {10, 4}, {11, 3}, {11, 7}, {13, 1}, {13, 5}, {13, 2},
    {13, 6}, {15, 0}, {15, 4}, {16, 3}, {16, 7}, {18, 1}, {18, 5},
    {18, 2}, {18, 6}, {20, 0}, {20, 4}, {21, 3}, {21, 7}, {23, 1},
    {23, 5}, {23, 2}, {23, 6}, {25, 0}, {25, 4}, {26, 3}, {26, 7},
    {28, 1}, {28, 5}, {28, 2}, {28, 6}, {31, 3}, {31, 7},
};

TEST(EventQueueTieBreak, PingPongGlobalOrderIsPinned)
{
    PingPong g;
    EXPECT_TRUE(g.eq.run());
    EXPECT_EQ(g.order, kPingPongOrder);
    EXPECT_EQ(g.eq.executed(), kPingPongOrder.size());
}

TEST(EventQueueTieBreak, RunLimitThenResumeKeepsPinnedOrder)
{
    PingPong g;
    EXPECT_FALSE(g.eq.run(12));
    EXPECT_EQ(g.eq.now(), 12u);
    const auto firstAfter12 =
        std::find_if(kPingPongOrder.begin(), kPingPongOrder.end(),
                     [](const auto &e) { return e.first > 12; });
    const std::vector<std::pair<Tick, int>> upTo12(kPingPongOrder.begin(),
                                                   firstAfter12);
    EXPECT_EQ(g.order, upTo12);
    EXPECT_TRUE(g.eq.run());
    EXPECT_EQ(g.order, kPingPongOrder);
}

// ------------------------------------------------------- allocation

/** A self-rechaining event stream (the simulator's core pattern). */
struct Chain
{
    EventQueue *eq = nullptr;
    int left = 0;
    void
    step()
    {
        if (--left > 0)
            eq->scheduleAfter(1, [this]() { step(); });
    }
};

/**
 * One workload pass: 100 parallel chains of 200 events each. The
 * chain storage is caller-owned so a measured pass performs no
 * allocations of its own outside the queue under test.
 */
void
runChainWorkload(EventQueue &eq, std::vector<Chain> &chains)
{
    chains.assign(100, Chain{&eq, 200});
    for (std::size_t c = 0; c < chains.size(); ++c) {
        Chain *cp = &chains[c];
        eq.scheduleAfter(1 + static_cast<Tick>(c),
                         [cp]() { cp->step(); });
    }
    eq.run();
}

TEST(EventQueueAlloc, SteadyStateSchedulePopIsAllocationFree)
{
    if (!kAllocHook)
        GTEST_SKIP() << "ASan owns operator new; no allocation hook";
    EventQueue eq;
    std::vector<Chain> chains;
    chains.reserve(100);
    // First pass warms the heap vector, the slot slabs and the
    // freelist to this workload's peak pending-event count.
    runChainWorkload(eq, chains);
    // An identical second pass must not touch the heap at all.
    const std::uint64_t before = g_newCalls.load();
    runChainWorkload(eq, chains);
    const std::uint64_t after = g_newCalls.load();
    EXPECT_EQ(after - before, 0u)
        << "schedule/pop allocated on a warmed queue";
    // Each chain's 200 step calls ride on exactly 200 events (the
    // kickoff event makes the first call).
    EXPECT_EQ(eq.executed(), 2u * 100u * 200u);
}

TEST(EventQueueAlloc, WarmRunLimitWindowsAreAllocationFree)
{
    // The System::run(limit) resume pattern used by crash injection.
    if (!kAllocHook)
        GTEST_SKIP() << "ASan owns operator new; no allocation hook";
    EventQueue eq;
    std::vector<Chain> chains;
    chains.reserve(100);
    runChainWorkload(eq, chains);
    const std::uint64_t before = g_newCalls.load();
    Chain chain{&eq, 5000};
    eq.scheduleAfter(1, [&chain]() { chain.step(); });
    while (!eq.run(eq.now() + 100)) {
    }
    EXPECT_EQ(g_newCalls.load() - before, 0u);
}

} // namespace

// --------------------------------------------------------------------
// Global operator-new hook: counts every heap allocation in the test
// binary so the EventQueueAlloc tests can assert a zero delta. Only
// the unaligned overloads are replaced (paired with their deletes);
// the malloc forwarding keeps sanitizer interceptors in the loop. The
// news and deletes stay out of line: inlined into library code, GCC
// would see operator-new memory handed to free, or malloc memory to
// operator delete, and warn (-Wmismatched-new-delete).

#if !defined(__SANITIZE_ADDRESS__)

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // !__SANITIZE_ADDRESS__
