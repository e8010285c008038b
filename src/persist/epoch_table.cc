#include "persist/epoch_table.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"

namespace asap
{

EpochTable::EpochTable(std::uint16_t thread, unsigned capacity,
                       StatSet &stats)
    : thread(thread), capacity(capacity), stats(stats),
      stFullStalls(&stats.counter("et.fullStalls")),
      stOverflowSplits(&stats.counter("et.overflowSplits")),
      stEpochsOpened(&stats.counter("et.epochsOpened")),
      stInterTEpochConflict(&stats.counter("et.interTEpochConflict")),
      stEpochsCommitted(&stats.counter("et.epochsCommitted"))
{
    fatal_if(capacity < 2, "epoch table needs at least 2 entries");
    Entry first;
    first.ts = 1;
    entries.push_back(first);
}

void
EpochTable::setCommittableHook(CommittableHook hook)
{
    committableHook = std::move(hook);
}

EpochTable::Entry *
EpochTable::findMut(std::uint64_t ts)
{
    // In-flight timestamps are consecutive (closeEpoch numbers epochs
    // in order, markCommitted removes only the front), so ts indexes
    // the deque directly; ts below the front wraps past size().
    if (entries.empty())
        return nullptr;
    const std::uint64_t idx = ts - entries.front().ts;
    if (idx >= entries.size())
        return nullptr;
    Entry &e = entries[idx];
    panic_if(e.ts != ts, "epoch table out of order: slot for ", ts,
             " holds ", e.ts);
    return &e;
}

const EpochTable::Entry *
EpochTable::find(std::uint64_t ts) const
{
    return const_cast<EpochTable *>(this)->findMut(ts);
}

void
EpochTable::closeEpoch(bool allow_overflow, Callback done)
{
    if (entries.size() >= capacity && !allow_overflow) {
        ++*stFullStalls;
        openWaiters.push_back([this, done = std::move(done)]() mutable {
            closeEpoch(false, std::move(done));
        });
        return;
    }
    if (entries.size() >= capacity)
        ++*stOverflowSplits;
    entries.back().closed = true;
    Entry next;
    next.ts = nextTs++;
    entries.push_back(next);
    ++*stEpochsOpened;
    evaluate();
    done();
}

void
EpochTable::openDependentEpoch(std::uint16_t src_thread,
                               std::uint64_t src_epoch)
{
    Entry &active = entries.back();
    panic_if(active.pending != 0 || active.closed,
             "dependent epoch must be opened right after a close");
    active.hasDep = true;
    active.depSrc = src_thread;
    active.depSrcEpoch = src_epoch;
    active.depResolved = false;
    ++*stInterTEpochConflict;
}

void
EpochTable::addWrite(std::uint64_t ts)
{
    Entry *e = findMut(ts);
    panic_if(!e, "write issued to unknown epoch ", ts);
    ++e->pending;
}

void
EpochTable::ackWrite(std::uint64_t ts)
{
    Entry *e = findMut(ts);
    panic_if(!e, "write ACK for unknown epoch ", ts);
    panic_if(e->pending == 0, "write ACK underflow for epoch ", ts);
    --e->pending;
    evaluate();
}

void
EpochTable::markEarlyMc(std::uint64_t ts, unsigned mc)
{
    Entry *e = findMut(ts);
    panic_if(!e, "early mark for unknown epoch ", ts);
    e->earlyMcMask |= (1u << mc);
}

void
EpochTable::resolveDependency(std::uint16_t src_thread,
                              std::uint64_t src_epoch)
{
    for (Entry &e : entries) {
        if (e.hasDep && !e.depResolved && e.depSrc == src_thread &&
            e.depSrcEpoch == src_epoch) {
            e.depResolved = true;
        }
    }
    evaluate();
}

bool
EpochTable::isSafe(std::uint64_t ts) const
{
    // Only the oldest in-flight epoch can be safe: all older epochs
    // have committed (they are removed on commit), and its incoming
    // dependency must be resolved.
    if (entries.empty() || entries.front().ts != ts)
        return ts <= lastCommitted_;
    return entries.front().depResolved;
}

void
EpochTable::evaluate()
{
    if (entries.empty() || !committableHook)
        return;
    Entry &front = entries.front();
    if (front.commitInProgress || !front.closed || front.pending != 0)
        return;
    if (!front.depResolved)
        return;
    front.commitInProgress = true;
    committableHook(front.ts);
}

std::vector<std::uint16_t>
EpochTable::markCommitted(std::uint64_t ts)
{
    panic_if(entries.empty() || entries.front().ts != ts,
             "out-of-order epoch commit: ", ts);
    std::vector<std::uint16_t> dependents =
        std::move(entries.front().dependents);
    lastCommitted_ = ts;
    entries.pop_front();
    ++*stEpochsCommitted;

    // Freed a slot: admit one stalled barrier.
    if (!openWaiters.empty() && entries.size() < capacity) {
        Callback w = std::move(openWaiters.front());
        openWaiters.pop_front();
        w();
    }

    // dfence waiters proceed once only the open epoch remains.
    if (entries.size() == 1 && !dfenceWaiters.empty()) {
        std::vector<Callback> ws = std::move(dfenceWaiters);
        dfenceWaiters.clear();
        for (Callback &w : ws)
            w();
    }

    evaluate();
    return dependents;
}

bool
EpochTable::registerDependent(std::uint16_t dep_thread, std::uint64_t ts)
{
    if (ts <= lastCommitted_)
        return true;
    Entry *e = findMut(ts);
    panic_if(!e, "dependent registered on unknown epoch ", ts);
    e->dependents.push_back(dep_thread);
    return false;
}

void
EpochTable::waitAllCommitted(Callback done)
{
    if (entries.size() == 1) {
        done();
        return;
    }
    dfenceWaiters.push_back(std::move(done));
}

} // namespace asap
