/**
 * @file
 * Three-level cache hierarchy timing model with conflict detection.
 *
 * Models private L1D/L2 per core and a shared LLC (Table II sizes) as
 * tag arrays; returns access latencies and detects the cross-thread
 * conflicting accesses that MESI forwards to the last writer — the
 * events ASAP and HOPS turn into cross-thread epoch dependencies
 * (Section IV-E). PM lines evicted from the LLC are dropped, since
 * persistence travels through the persist-buffer path, not the cache
 * write-back path (Section V-A); an eviction hook lets the system
 * route those drops through the NACK Bloom filter (Section V-F).
 */

#ifndef ASAP_COHERENCE_CACHE_HIERARCHY_HH
#define ASAP_COHERENCE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coherence/cache_array.hh"
#include "media/media.hh"
#include "sim/config.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace asap
{

/** Outcome of one load/store walking the hierarchy. */
struct CacheAccess
{
    Tick latency = 0;       //!< cycles until the access completes
    bool conflict = false;  //!< line was modified by another thread
    std::uint16_t srcThread = 0; //!< that thread (valid when conflict)
};

/** Private L1/L2 per core plus a shared LLC and a writer directory. */
class CacheHierarchy
{
  public:
    /**
     * Hook consulted before dropping a PM line from the LLC; return
     * true to delay the eviction (NACK Bloom filter hit).
     */
    using EvictFilter = std::function<bool(std::uint64_t line)>;

    CacheHierarchy(const SimConfig &cfg, StatSet &stats);

    /**
     * Simulate one access by @p thread.
     *
     * @param thread accessing core
     * @param line line address
     * @param is_write true for stores
     * @param is_pm true if the line maps to persistent memory
     */
    CacheAccess access(std::uint16_t thread, std::uint64_t line,
                       bool is_write, bool is_pm);

    /** Install the LLC PM-eviction filter (Bloom-filter check). */
    void setEvictFilter(EvictFilter f) { evictFilter = std::move(f); }

    /** Clear a line's dirty state everywhere (clwb semantics). */
    void cleanLine(std::uint16_t thread, std::uint64_t line);

    /** Last thread to write @p line, or -1 if nobody has. */
    int lastWriter(std::uint64_t line) const;

  private:
    const SimConfig &cfg;
    StatSet &stats;
    /** Resolved media timing: miss fills draw the PM read / DRAM fill
     *  latency from the configured profile, not SimConfig constants. */
    MediaParams mediaParams_;

    struct PrivateCaches
    {
        CacheArray l1;
        CacheArray l2;
        PrivateCaches(const SimConfig &c)
            : l1(c.l1Sets, c.l1Ways), l2(c.l2Sets, c.l2Ways)
        {
        }
    };

    std::vector<std::unique_ptr<PrivateCaches>> privs;
    CacheArray llc;

    /** Directory: last writer per line + whether that write is live. */
    struct DirEntry
    {
        std::uint16_t owner = 0;
        bool modified = false;
    };
    FlatMap<DirEntry> directory;

    EvictFilter evictFilter;

    // Hot counters resolved once at construction (see StatSet::counter).
    std::uint64_t *stConflictTransfers;
    std::uint64_t *stL1Hits;
    std::uint64_t *stL2Hits;
    std::uint64_t *stLlcHits;
    std::uint64_t *stPmFills;
    std::uint64_t *stDramFills;
    std::uint64_t *stLlcEvictDelayed;
    std::uint64_t *stLlcDirtyEvicts;
};

} // namespace asap

#endif // ASAP_COHERENCE_CACHE_HIERARCHY_HH
