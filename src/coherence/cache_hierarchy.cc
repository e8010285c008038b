#include "coherence/cache_hierarchy.hh"

#include "sim/log.hh"

namespace asap
{

CacheHierarchy::CacheHierarchy(const SimConfig &cfg, StatSet &stats)
    : cfg(cfg), stats(stats), mediaParams_(resolveMediaParams(cfg)),
      llc(cfg.llcSets, cfg.llcWays),
      stConflictTransfers(&stats.counter("cache.conflictTransfers")),
      stL1Hits(&stats.counter("cache.l1Hits")),
      stL2Hits(&stats.counter("cache.l2Hits")),
      stLlcHits(&stats.counter("cache.llcHits")),
      stPmFills(&stats.counter("cache.pmFills")),
      stDramFills(&stats.counter("cache.dramFills")),
      stLlcEvictDelayed(&stats.counter("cache.llcEvictDelayed")),
      stLlcDirtyEvicts(&stats.counter("cache.llcDirtyEvicts"))
{
    privs.reserve(cfg.numCores);
    for (unsigned i = 0; i < cfg.numCores; ++i)
        privs.push_back(std::make_unique<PrivateCaches>(cfg));
}

CacheAccess
CacheHierarchy::access(std::uint16_t thread, std::uint64_t line,
                       bool is_write, bool is_pm)
{
    panic_if(thread >= privs.size(), "access from unknown core ", thread);
    CacheAccess res;
    PrivateCaches &pc = *privs[thread];

    // Conflict detection first: MESI would forward the request to the
    // modifying core regardless of where the requester misses. Reads
    // conflict with a *modified* remote line; writes conflict with
    // the last writer even after intermediate readers downgraded it
    // (ownership transfer still orders the stores).
    DirEntry *dir = directory.find(line);
    if (dir && dir->owner != thread && (dir->modified || is_write)) {
        res.conflict = true;
        res.srcThread = dir->owner;
        res.latency = cfg.cacheToCacheLatency;
        // The remote copy is downgraded (read) or invalidated (write);
        // either way its private caches no longer hold it modified.
        privs[res.srcThread]->l1.clean(line);
        privs[res.srcThread]->l2.clean(line);
        if (is_write) {
            privs[res.srcThread]->l1.invalidate(line);
            privs[res.srcThread]->l2.invalidate(line);
        }
        ++*stConflictTransfers;
    }

    if (is_write) {
        if (dir)
            *dir = DirEntry{thread, true};
        else
            directory[line] = DirEntry{thread, true};
    } else if (dir && res.conflict) {
        dir->modified = false;
    }

    // One probe per level allocates the line throughout (write-
    // allocate, mostly-inclusive). The walk for the latency stops at
    // the first hit, or never starts when a dirty transfer already
    // sourced the data; only the level that answers refreshes its LRU
    // state, the others just keep or gain the line.
    bool walk = !res.conflict;
    CacheArray::Victim victim;
    if (pc.l1.probe(line, is_write, walk, victim) && walk) {
        res.latency = cfg.l1Latency;
        ++*stL1Hits;
        walk = false;
    }
    if (pc.l2.probe(line, is_write, walk, victim) && walk) {
        res.latency = cfg.l2Latency;
        ++*stL2Hits;
        walk = false;
    }
    if (llc.probe(line, is_write, walk, victim)) {
        if (walk) {
            res.latency = cfg.llcLatency;
            ++*stLlcHits;
            walk = false;
        }
    } else if (victim.valid && victim.dirty) {
        // PM lines are dropped on LLC eviction: durability flows
        // through the persist buffers, not cache write-back. The
        // Bloom filter may ask us to hold the line briefly.
        if (evictFilter && evictFilter(victim.line)) {
            ++*stLlcEvictDelayed;
        }
        ++*stLlcDirtyEvicts;
    }
    if (walk) {
        res.latency = is_pm ? mediaParams_.readLatency
                            : mediaParams_.dramFillLatency;
        ++*(is_pm ? stPmFills : stDramFills);
    }

    return res;
}

void
CacheHierarchy::cleanLine(std::uint16_t thread, std::uint64_t line)
{
    panic_if(thread >= privs.size(), "clean from unknown core ", thread);
    privs[thread]->l1.clean(line);
    privs[thread]->l2.clean(line);
    llc.clean(line);
    if (DirEntry *dir = directory.find(line))
        dir->modified = false;
}

int
CacheHierarchy::lastWriter(std::uint64_t line) const
{
    const DirEntry *dir = directory.find(line);
    return dir ? static_cast<int>(dir->owner) : -1;
}

} // namespace asap
