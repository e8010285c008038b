/**
 * @file
 * Persist Buffer (PB).
 *
 * Per-core circular buffer that queues NVM writes next to the private
 * caches (Section V-A). Writes coalesce per line within an epoch; a
 * background flush engine drains entries to the memory controllers.
 * The owning model decides, per entry, whether it may flush and
 * whether the flush is safe or early (HOPS: conservative, only safe
 * flushes; ASAP: eager, early flushes allowed). The PB tracks the two
 * stall statistics of the paper: cycles the core is stalled on a full
 * buffer (cyclesStalled) and cycles the buffer holds writes it is not
 * allowed to flush (cyclesBlocked, Figure 3).
 */

#ifndef ASAP_PERSIST_PERSIST_BUFFER_HH
#define ASAP_PERSIST_PERSIST_BUFFER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "mem/packets.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace asap
{

/** How the owning model classifies a queued entry for flushing. */
enum class FlushMode
{
    Hold,   //!< not allowed to flush yet
    Safe,   //!< flush as a normal (safe) write
    Early,  //!< flush speculatively, marked early
};

/** Per-core buffer of writes on their way to persistence. */
class PersistBuffer
{
  public:
    using Callback = std::function<void()>;
    /** Model policy: may this entry flush, and how? */
    using ClassifyFn = std::function<FlushMode(std::uint64_t epoch)>;
    /** Model hook: a flush of (epoch, line) was NACKed. */
    using NackFn = std::function<void(std::uint64_t epoch,
                                      std::uint64_t line)>;
    /** Model hook: a flush of epoch was ACKed (ET bookkeeping). */
    using AckFn = std::function<void(std::uint64_t epoch,
                                     std::uint64_t line, bool early)>;

    PersistBuffer(std::uint16_t thread, const SimConfig &cfg,
                  EventQueue &eq, StatSet &stats, AddressMap &amap,
                  std::vector<MemoryController *> &mcs);

    /** Install model policies (must happen before the first store). */
    void configure(ClassifyFn classify, AckFn on_ack, NackFn on_nack);

    /**
     * Enqueue a PM store of the active epoch. @p accepted fires when
     * the entry is in the buffer — immediately on space or coalesce,
     * later when the buffer is full (back-pressure into the core).
     */
    void enqueue(std::uint64_t line, std::uint64_t value,
                 std::uint64_t epoch, Callback accepted);

    /** Re-examine queued entries (epoch state changed). */
    void kick() { tryFlush(); }

    /** Entries currently queued or in flight. */
    std::size_t occupancy() const { return queued.size() + numInflight; }

    /** True once every entry has been flushed and ACKed. */
    bool empty() const { return occupancy() == 0; }

    /** Cumulative count of entries ever enqueued. */
    std::uint64_t enqueued() const { return totalEnqueued; }

    /** Cumulative count of entries flushed past (ACKed). */
    std::uint64_t flushedIndex() const { return totalAcked; }

    /** Drop all state (crash). */
    void crash();

  private:
    struct PbEntry
    {
        std::uint64_t line;
        std::uint64_t value;
        std::uint64_t epoch;
        bool nacked = false; //!< was rejected once; retries as safe
    };

    void tryFlush();
    /** Send queued[@p idx] to its controller, @p early or safe. */
    void dispatch(std::size_t idx, bool early);
    void accountOccupancy();

    std::uint16_t thread;
    const SimConfig &cfg;
    EventQueue &eq;
    StatSet &stats;
    AddressMap &amap;
    std::vector<MemoryController *> &mcs;

    ClassifyFn classify;
    AckFn onAck;
    NackFn onNack;

    struct StalledStore
    {
        PbEntry entry;
        Callback accepted;
        Tick since;
    };

    std::deque<PbEntry> queued;
    unsigned numInflight = 0;
    /** Lines with an in-flight flush: later writes to the same line
     *  must wait so same-line flushes arrive at the MC in order.
     *  Multiset semantics over a linear-scanned vector — occupancy is
     *  bounded by pbMaxInflight, far below hash-map break-even. */
    std::vector<std::uint64_t> inflightLines;
    std::deque<StalledStore> stalledStores;
    std::uint64_t totalEnqueued = 0;
    std::uint64_t totalAcked = 0;

    // Time-weighted occupancy and blocked-cycle accounting: the buffer
    // is blocked while it holds entries none of which may flush
    // (recomputed at the end of every tryFlush).
    Tick lastOccChange = 0;
    Tick lastBlockedCheck = 0;
    bool wasBlocked = false;
    bool crashed = false;

    std::string statPrefix;

    // Hot counters resolved once at construction (see StatSet::counter).
    Distribution *occDist;
    std::uint64_t *stCyclesBlocked;
    std::uint64_t *stCyclesBlockedAgg;
    std::uint64_t *stCoalesced;
    std::uint64_t *stFullEvents;
    std::uint64_t *stEntriesInserted;
    std::uint64_t *stTotSpecWrites;
    std::uint64_t *stNacksReceived;
    std::uint64_t *stCyclesStalled;
};

} // namespace asap

#endif // ASAP_PERSIST_PERSIST_BUFFER_HH
