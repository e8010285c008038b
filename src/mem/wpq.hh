/**
 * @file
 * Write Pending Queue (WPQ) model.
 *
 * The WPQ is the small buffer inside each memory controller that is
 * part of the ADR persistence domain: once a write is accepted here it
 * survives power failure (Section II-C). Writes drain from the WPQ to
 * the NVM media. Writes to a line already pending coalesce in place,
 * which is one of ASAP's write-endurance wins (Section VII-A).
 *
 * Implementation: a fixed ring buffer sized at construction. The
 * queue is hardware-small (16 entries by default), so a lookup is a
 * linear scan over a contiguous array, stepping its index with a
 * compare-and-reset rather than a modulo, and the steady-state
 * insert/pop path performs no allocation at all.
 */

#ifndef ASAP_MEM_WPQ_HH
#define ASAP_MEM_WPQ_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace asap
{

/** FIFO of pending media writes with in-place coalescing. */
class Wpq
{
  public:
    /** Outcome of an insertion attempt. */
    enum class Insert
    {
        Queued,     //!< new entry allocated
        Coalesced,  //!< merged into an existing same-line entry
        Full,       //!< no space; caller must retry later
    };

    explicit Wpq(unsigned capacity)
        : cap(capacity), ring(capacity ? capacity : 1)
    {
    }

    /**
     * Try to add (or coalesce) a pending write.
     *
     * @param extra_latency additional media-service latency this write
     *        requires (an undo-snapshot read issued before the
     *        speculative update; coalescing keeps the maximum)
     */
    Insert
    insert(std::uint64_t line, std::uint64_t value,
           std::uint64_t extra_latency = 0, std::uint64_t now = 0)
    {
        if (Entry *e = find(line)) {
            e->value = value;
            if (extra_latency > e->extraLatency)
                e->extraLatency = extra_latency;
            return Insert::Coalesced;
        }
        if (count >= cap)
            return Insert::Full;
        Entry &e = ring[wrap(head + count)];
        e.line = line;
        e.value = value;
        e.extraLatency = extra_latency;
        e.insertTick = now;
        ++count;
        return Insert::Queued;
    }

    /** True if a write for @p line is pending. */
    bool
    contains(std::uint64_t line) const
    {
        return const_cast<Wpq *>(this)->find(line) != nullptr;
    }

    /** Pending value for @p line, or nullptr if none is pending. */
    const std::uint64_t *
    pendingValue(std::uint64_t line) const
    {
        const Entry *e = const_cast<Wpq *>(this)->find(line);
        return e ? &e->value : nullptr;
    }

    /** Oldest entry still pending (precondition: !empty()). */
    struct FrontEntry
    {
        std::uint64_t line;
        std::uint64_t value;
        std::uint64_t extraLatency;
        std::uint64_t insertTick;
    };

    FrontEntry
    front() const
    {
        const Entry &e = ring[head];
        return {e.line, e.value, e.extraLatency, e.insertTick};
    }

    /** Retire the oldest entry (it has been issued to the media). */
    void
    pop()
    {
        head = wrap(head + 1);
        --count;
    }

    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }
    std::size_t size() const { return count; }
    unsigned capacity() const { return cap; }

    /**
     * Non-destructive FIFO snapshot of the pending writes (crash-state
     * permuter). Coalescing keeps at most one entry per line, so the
     * snapshot doubles as the queue's line -> value map.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    entries() const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        out.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const Entry &e = ring[wrap(head + i)];
            out.emplace_back(e.line, e.value);
        }
        return out;
    }

    /** Snapshot of all pending writes (used by crash handling). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    drainAll()
    {
        auto out = entries();
        head = 0;
        count = 0;
        return out;
    }

  private:
    struct Entry
    {
        std::uint64_t line;
        std::uint64_t value;
        std::uint64_t extraLatency = 0;
        std::uint64_t insertTick = 0;
    };

    /** Ring index of position @p i, for i < 2 * ring.size(). */
    std::size_t
    wrap(std::size_t i) const
    {
        return i < ring.size() ? i : i - ring.size();
    }

    Entry *
    find(std::uint64_t line)
    {
        std::size_t i = head;
        for (std::size_t n = 0; n < count; ++n) {
            if (ring[i].line == line)
                return &ring[i];
            if (++i == ring.size())
                i = 0;
        }
        return nullptr;
    }

    unsigned cap;
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace asap

#endif // ASAP_MEM_WPQ_HH
