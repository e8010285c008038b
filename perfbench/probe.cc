/**
 * @file
 * The host-speed probe: a fixed piece of work, timed just before each
 * workload run, that the end-to-end times are expressed in.
 *
 * A few CPUs of a shared machine drift in speed by a third over
 * minutes with the other tenants' load; the drift moves whole runs, so
 * no statistic inside one run removes it.
 * The probe does the simulator's kind of work (an event heap driving
 * dependent loads and branches) on as many threads as the workload,
 * and sees the same drift. Its table fits in L1, so it measures the
 * cores' speed and not where its pages landed: a 2 MB table made the
 * probe vary by a third from one process to the next. Its code lives
 * here, outside the simulator, so a change to the simulator does not
 * change it.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kTableWords = std::size_t(1) << 13; // 64 KB
constexpr std::size_t kEvents = 1024;
constexpr int kSteps = 250000;

/** Where the probe's result goes, so its loop cannot be optimised out. */
std::atomic<std::uint64_t> probeSink{0};

struct Event
{
    std::uint64_t when;
    std::uint32_t slot;
};

/** One thread's share of the probe. The heap is written out here, not
 *  taken from the standard library, so the probe stays the same work
 *  when the library changes. */
class Lane
{
  public:
    explicit Lane(std::uint64_t seed) : table(kTableWords)
    {
        std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
        for (std::uint64_t &t : table) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t = x;
        }
        for (std::size_t i = 0; i < kEvents; ++i)
            push({table[i] & 1023,
                  static_cast<std::uint32_t>(table[i] % kTableWords)});
    }

    /** Run the fixed steps; return their wall time. */
    double
    run()
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t sum = 0;
        for (int i = 0; i < kSteps; ++i) {
            const Event e = pop();
            const std::uint64_t v = table[e.slot];
            sum += v;
            table[e.slot] = v * 0x2545f4914f6cdd1dULL + i;
            push({e.when + 1 + (v & 255),
                  static_cast<std::uint32_t>((v ^ (v >> 29)) % kTableWords)});
        }
        probeSink.fetch_add(sum, std::memory_order_relaxed);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

  private:
    void
    push(Event e)
    {
        heap.push_back(e);
        for (std::size_t i = heap.size() - 1;
             i && heap[(i - 1) / 2].when > heap[i].when; i = (i - 1) / 2)
            std::swap(heap[(i - 1) / 2], heap[i]);
    }

    Event
    pop()
    {
        const Event top = heap.front();
        heap.front() = heap.back();
        heap.pop_back();
        for (std::size_t i = 0;;) {
            std::size_t m = i;
            for (std::size_t c = 2 * i + 1; c <= 2 * i + 2; ++c)
                if (c < heap.size() && heap[c].when < heap[m].when)
                    m = c;
            if (m == i)
                return top;
            std::swap(heap[m], heap[i]);
            i = m;
        }
    }

    std::vector<std::uint64_t> table;
    std::vector<Event> heap;
};

} // namespace

double
probeHostSeconds(unsigned workers)
{
    std::vector<double> each(workers);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        // Each thread builds its lane untimed, then times the steps.
        threads.emplace_back([&each, w] { each[w] = Lane(w + 1).run(); });
    }
    for (std::thread &t : threads)
        t.join();
    double sum = 0.0;
    for (double s : each)
        sum += s;
    return sum;
}

} // namespace perfbench
