/**
 * @file
 * Recovery Table (RT) — the heart of ASAP's contribution.
 *
 * A small CAM in each memory controller, inside the ADR persistence
 * domain, holding two kinds of records (Section V-A):
 *
 *  - *undo* records: the safe (pre-speculation) value of a line that
 *    has been speculatively updated by an early flush. On a crash the
 *    undo value rewinds memory.
 *  - *delay* records: the value of an early flush that arrived while
 *    an undo record already existed for its line (write collision,
 *    Section IV-F). The value is applied when its epoch commits.
 *
 * Incoming flushes are classified by the Table I decision matrix. The
 * table NACKs early flushes when full (Section V-D) and remembers
 * NACKed line addresses in a counting Bloom filter so LLC evictions of
 * those lines can be delayed (Section V-F).
 */

#ifndef ASAP_CORE_RECOVERY_TABLE_HH
#define ASAP_CORE_RECOVERY_TABLE_HH

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/recovery_policy.hh"
#include "persist/bloom_filter.hh"
#include "sim/stats.hh"

namespace asap
{

/** ASAP's per-controller undo/delay record store. */
class RecoveryTable : public RecoveryPolicy
{
  public:
    /**
     * @param mc_id owning controller (stat labels)
     * @param capacity total record slots (undo + delay; Table II: 32)
     * @param stats shared stats registry
     */
    RecoveryTable(unsigned mc_id, unsigned capacity, StatSet &stats);

    FlushAction onFlush(const FlushPacket &pkt,
                        std::uint64_t current_value) override;

    void onCommit(std::uint16_t thread, std::uint64_t epoch,
                  const WriteOutFn &write_out) override;

    void onCrash(const WriteOutFn &write_out) override;

    std::size_t occupancy() const override;

    void exportRecords(std::vector<UndoRecordView> &undos_out,
                       std::vector<DelayRecordView> &delays_out)
        const override;

    /** Is an eviction of @p line to be delayed (NACK pending)? */
    bool nackPending(std::uint64_t line) const;

    /** Test support: current undo value for a line (0 if none). */
    bool hasUndo(std::uint64_t line) const;
    std::uint64_t undoValue(std::uint64_t line) const;
    std::size_t delayCount() const { return delays.size(); }

  private:
    struct UndoRecord
    {
        std::uint64_t value;    //!< safe value to restore on crash
        std::uint16_t thread;   //!< creator thread
        std::uint64_t epoch;    //!< creator epoch (deleted on commit)
    };

    struct DelayRecord
    {
        std::uint64_t line;
        std::uint64_t value;
        std::uint16_t thread;
        std::uint64_t epoch;
    };

    /** A (per-RT "rtN.*", aggregate "rt.*") counter pair. */
    struct Pair
    {
        std::uint64_t *rt;
        std::uint64_t *agg;
    };

    void
    inc(Pair &p, std::uint64_t delta = 1)
    {
        *p.rt += delta;
        *p.agg += delta;
    }

    void statMax();

    unsigned mcId;
    unsigned capacity;
    StatSet &stats;
    std::string statPrefix;

    // Hot counters resolved once at construction (see StatSet::counter).
    Pair stMaxOcc; //!< high-water marks, not sums
    Pair stDelayCoalesced;
    Pair stSameEpochWriteThrough;
    Pair stNacks;
    Pair stTotalDelay;
    Pair stTotalUndo;
    Pair stDelayAbsorbed;

    std::unordered_map<std::uint64_t, UndoRecord> undos;
    std::list<DelayRecord> delays;

    CountingBloom nackBloom;
    /** Exact shadow of the Bloom contents to drive removals. */
    std::unordered_multiset<std::uint64_t> nackedLines;
};

} // namespace asap

#endif // ASAP_CORE_RECOVERY_TABLE_HH
