/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A queue of (tick, sequence, callback) events with one total order.
 * Every event is tagged with a domain (0 = the core complex: cores,
 * caches, persist buffers, models; 1+i = memory controller i), and
 * the sequence key that breaks same-tick ties is minted from the
 * *scheduling* domain's own send counter — (per-domain counter,
 * domain id) packed into 64 bits. That rule is part of every pinned
 * output: a plain global counter orders some same-tick core/MC events
 * differently; see src/sim/README.md.
 *
 * The kernel is allocation-free in steady state. Callbacks are
 * constructed in place inside fixed-size slots (small-buffer storage,
 * enforced at compile time — no heap fallback) that live in
 * chunk-allocated slabs and recycle through a freelist; the priority
 * queue itself is a binary heap of 24-byte plain-data nodes
 * {tick, seq, slot, domain}, so sift operations move trivially
 * copyable values and never touch the callbacks. Once the heap vector
 * and the slab have warmed to the simulation's peak pending-event
 * count, the schedule/pop cycle performs zero heap allocation.
 */

#ifndef ASAP_SIM_EVENT_QUEUE_HH
#define ASAP_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/ticks.hh"

namespace asap
{

/** Identifier of an event domain (0 = core complex, 1+i = MC i). */
using DomainId = std::uint16_t;

/** Ordered queue of simulation events. */
class EventQueue
{
  public:
    /**
     * Inline storage per event callback. Large enough for every
     * capture list in the simulator (the biggest — a persist-buffer
     * dispatch capturing a FlushPacket plus a PbEntry — is under 90
     * bytes); schedule() rejects larger callables at compile time
     * rather than falling back to the heap.
     */
    static constexpr std::size_t inlineCallbackBytes = 104;

    /** Domain of the core complex (cores, caches, PBs, models). */
    static constexpr DomainId kCoreDomain = 0;

    /** Domain of memory controller @p mc. */
    static constexpr DomainId
    mcDomain(unsigned mc)
    {
        return static_cast<DomainId>(1 + mc);
    }

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    // --- time and counters ------------------------------------------

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /** Number of events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /** Number of events still pending. */
    std::size_t pending() const { return heap.size(); }

    // --- scheduling -------------------------------------------------

    /**
     * Schedule @p cb to run at absolute time @p when in the
     * scheduling domain (the executing event's domain, or the core
     * domain outside event context).
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        scheduleIn(curDom_, when, std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&cb)
    {
        schedule(now() + delay, std::forward<F>(cb));
    }

    /**
     * Schedule @p cb into @p target's domain at absolute @p when. The
     * key still comes from the scheduling domain's counter; the
     * target becomes the event's domain, and so the creator of
     * whatever the event schedules in turn.
     */
    template <typename F>
    void
    scheduleIn(DomainId target, Tick when, F &&cb)
    {
        panic_if(when < curTick_, "scheduling event in the past (",
                 when, " < ", curTick_, ")");
        fatal_if(target >= kMaxDomains, "scheduleIn: domain ", target,
                 " out of range");
        heap.push_back(Node{when, makeKey(curDom_),
                            makeSlot(std::forward<F>(cb)), target});
        std::push_heap(heap.begin(), heap.end(), NodeAfter{});
    }

    /** scheduleIn() with a delay relative to now(). */
    template <typename F>
    void
    scheduleAfterIn(DomainId target, Tick delay, F &&cb)
    {
        scheduleIn(target, now() + delay, std::forward<F>(cb));
    }

    // --- execution --------------------------------------------------

    /**
     * Run events until the queue drains or @p limit is reached.
     *
     * @param limit stop before executing events later than this tick
     * @return true if the queue drained, false if the limit stopped it
     */
    bool
    run(Tick limit = maxTick)
    {
        while (!heap.empty()) {
            if (heap.front().when > limit) {
                curTick_ = limit;
                return false;
            }
            popAndExecute();
        }
        return true;
    }

    /** Run a single event; returns false when the queue is empty. */
    bool
    step()
    {
        if (heap.empty())
            return false;
        popAndExecute();
        return true;
    }

    /**
     * Drop all pending events in one sweep (used by crash injection —
     * no O(n log n) heap drain, just callback teardown).
     * @return the number of events dropped
     */
    std::size_t clear();

  private:
    /** One constructed-in-place callback. Slots never move: slabs are
     *  chunk-allocated and only the freelist recycles them. */
    struct Slot
    {
        alignas(std::max_align_t) unsigned char storage[inlineCallbackBytes];
        void (*invoke)(void *);
        void (*destroy)(void *); //!< null for trivially destructible
    };

    /** Heap node: plain data, cheap to sift. @c dom is the event's
     *  domain, which mints the keys of everything it schedules. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        DomainId dom;
    };

    /** Heap order: the front is the earliest (tick, seq) pair. */
    struct NodeAfter
    {
        bool
        operator()(const Node &a, const Node &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t slotsPerChunk = 256;

    /** Domain-id bits packed into the low end of a sequence key. */
    static constexpr unsigned kDomBits = 6;
    static constexpr DomainId kMaxDomains = 1u << kDomBits;

    /**
     * Mint the next sequence key for a schedule call made by
     * @p creator: (creator's send counter, creator id), compared as
     * one 64-bit integer.
     */
    std::uint64_t
    makeKey(DomainId creator)
    {
        return (sendCounters_[creator]++ << kDomBits) | creator;
    }

    Slot &
    slotAt(std::uint32_t id)
    {
        return chunks[id / slotsPerChunk][id % slotsPerChunk];
    }

    template <typename F>
    std::uint32_t
    makeSlot(F &&cb)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= inlineCallbackBytes,
                      "event callback capture exceeds the inline slot; "
                      "shrink the capture or raise inlineCallbackBytes");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event callback");
        if (freeSlots.empty())
            growSlab();
        const std::uint32_t idx = freeSlots.back();
        freeSlots.pop_back();
        Slot &s = slotAt(idx);
        ::new (static_cast<void *>(s.storage)) Fn(std::forward<F>(cb));
        s.invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
        if constexpr (std::is_trivially_destructible_v<Fn>)
            s.destroy = nullptr;
        else
            s.destroy = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        return idx;
    }

    void growSlab();

    void
    releaseSlot(std::uint32_t id)
    {
        Slot &s = slotAt(id);
        if (s.destroy)
            s.destroy(s.storage);
        freeSlots.push_back(id);
    }

    /** Pop the earliest event and execute it. The node leaves the
     *  heap before the callback runs (callbacks schedule new events);
     *  the slot is released after, so an executing callback never
     *  aliases a live one. */
    void
    popAndExecute()
    {
        const Node top = heap.front();
        std::pop_heap(heap.begin(), heap.end(), NodeAfter{});
        heap.pop_back();
        curTick_ = top.when;
        curDom_ = top.dom;
        ++executed_;
        Slot &s = slotAt(top.slot);
        s.invoke(s.storage);
        curDom_ = kCoreDomain;
        releaseSlot(top.slot);
    }

    std::vector<Node> heap;
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::vector<std::uint32_t> freeSlots;
    Tick curTick_ = 0;
    DomainId curDom_ = kCoreDomain; //!< executing event's domain
    std::uint64_t executed_ = 0;

    /** Per-domain send counters (see makeKey()). */
    std::array<std::uint64_t, kMaxDomains> sendCounters_{};
};

} // namespace asap

#endif // ASAP_SIM_EVENT_QUEUE_HH
