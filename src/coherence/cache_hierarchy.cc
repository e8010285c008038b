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
    auto dit = directory.find(line);
    if (dit != directory.end() && dit->second.owner != thread &&
        (dit->second.modified || is_write)) {
        res.conflict = true;
        res.srcThread = dit->second.owner;
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
        directory[line] = DirEntry{thread, true};
    } else if (dit != directory.end() && res.conflict) {
        dit->second.modified = false;
    }

    // Walk the hierarchy for the latency unless a dirty transfer
    // already sourced the data.
    if (!res.conflict) {
        if (pc.l1.access(line, is_write)) {
            res.latency = cfg.l1Latency;
            ++*stL1Hits;
        } else if (pc.l2.access(line, is_write)) {
            res.latency = cfg.l2Latency;
            ++*stL2Hits;
        } else if (llc.access(line, is_write)) {
            res.latency = cfg.llcLatency;
            ++*stLlcHits;
        } else {
            res.latency = is_pm ? mediaParams_.readLatency
                                : mediaParams_.dramFillLatency;
            ++*(is_pm ? stPmFills : stDramFills);
        }
    }

    // Allocate the line throughout (write-allocate, mostly-inclusive).
    if (!pc.l1.contains(line))
        pc.l1.insert(line, is_write);
    if (!pc.l2.contains(line))
        pc.l2.insert(line, is_write);
    if (!llc.contains(line)) {
        CacheArray::Victim v = llc.insert(line, is_write);
        if (v.valid && v.dirty) {
            // PM lines are dropped on LLC eviction: durability flows
            // through the persist buffers, not cache write-back. The
            // Bloom filter may ask us to hold the line briefly.
            if (evictFilter && evictFilter(v.line)) {
                ++*stLlcEvictDelayed;
            }
            ++*stLlcDirtyEvicts;
        }
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
    auto dit = directory.find(line);
    if (dit != directory.end())
        dit->second.modified = false;
}

int
CacheHierarchy::lastWriter(std::uint64_t line) const
{
    auto it = directory.find(line);
    return it == directory.end() ? -1 : static_cast<int>(it->second.owner);
}

} // namespace asap
