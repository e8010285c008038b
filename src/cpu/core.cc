#include "cpu/core.hh"

#include <algorithm>

#include "mem/packets.hh"
#include "sim/log.hh"

namespace asap
{

Core::Core(std::uint16_t thread, const SimConfig &cfg, EventQueue &eq,
           StatSet &stats, CacheHierarchy &caches, ReleaseBoard &board,
           std::vector<PersistModel *> &models, RunLog *log,
           OpSource &src)
    : thread(thread), cfg(cfg), eq(eq), stats(stats), caches(caches),
      board(board), models(models), log(log), src(src),
      epConflicts(cfg.persistency == PersistencyModel::Epoch),
      stOpsRetired(&stats.counter("core.opsRetired")),
      stPmStores(&stats.counter("core.pmStores")),
      stOfences(&stats.counter("core.ofences")),
      stDfences(&stats.counter("core.dfences")),
      stReleases(&stats.counter("core.releases")),
      stAcquires(&stats.counter("core.acquires")),
      stPersistLat(&stats.logHist("core.persistLatency"))
{
}

void
Core::start()
{
    eq.scheduleAfter(0, [this]() { next(); });
}

void
Core::scheduleNext(Tick delay)
{
    eq.scheduleAfter(std::max<Tick>(delay, 1), [this]() { next(); });
}

void
Core::handleConflict(const CacheAccess &acc)
{
    if (!epConflicts || !acc.conflict)
        return;
    // MESI forwarded the request to the modifying core: it replies
    // with its current epoch and both sides split epochs.
    const std::uint64_t src_epoch =
        models[acc.srcThread]->conflictSource(thread);
    if (src_epoch == 0)
        return;
    model().conflictDependent(acc.srcThread, src_epoch);
    if (log) {
        log->recordEdge(thread, model().currentEpoch(), acc.srcThread,
                        src_epoch);
    }
}

void
Core::next()
{
    if (halted || done)
        return;
    const TraceOp op = src.next(thread);
    ++pc;
    ++*stOpsRetired;

    switch (op.type) {
      case OpType::Compute:
        scheduleNext(op.cycles);
        return;

      case OpType::Load: {
        CacheAccess acc =
            caches.access(thread, lineOf(op.addr), false, op.isPm);
        handleConflict(acc);
        scheduleNext(acc.latency);
        return;
      }

      case OpType::Store: {
        CacheAccess acc =
            caches.access(thread, lineOf(op.addr), true, op.isPm);
        handleConflict(acc);
        if (!op.isPm) {
            scheduleNext(1);
            return;
        }
        ++*stPmStores;
        if (log) {
            log->recordStore(thread, model().currentEpoch(),
                             lineOf(op.addr), op.value);
        }
        model().pmStore(lineOf(op.addr), op.value,
                        [this]() { scheduleNext(1); });
        return;
      }

      case OpType::OFence:
        ++*stOfences;
        model().ofence([this]() { scheduleNext(1); });
        return;

      case OpType::DFence: {
        ++*stDfences;
        // Persist latency: how long this thread waited for durability.
        const Tick issued = eq.now();
        model().dfence([this, issued]() {
            stPersistLat->sample(eq.now() - issued);
            scheduleNext(1);
        });
        return;
      }

      case OpType::Release: {
        ++*stReleases;
        // Capture the epoch being published before the 1-sided
        // barrier closes it.
        const std::uint64_t rel_epoch = model().currentEpoch();
        const std::uint64_t lock_line = lineOf(op.addr);
        model().release([this, rel_epoch, lock_line]() {
            // The release writes the lock word; under EP an acquiring
            // thread's access to it raises the dependency.
            CacheAccess acc =
                caches.access(thread, lock_line, true, false);
            (void)acc; // the releaser itself never self-conflicts
            board.publish(thread, rel_epoch);
            scheduleNext(1);
        });
        return;
      }

      case OpType::Acquire: {
        ++*stAcquires;
        const TraceOp &aop = op;
        auto proceed = [this, aop]() {
            CacheAccess acc =
                caches.access(thread, lineOf(aop.addr), true, false);
            if (epConflicts) {
                // EP: the lock-word conflict raises the dependency.
                handleConflict(acc);
                scheduleNext(std::max<Tick>(acc.latency, 1));
                return;
            }
            if (aop.srcThread >= 0 &&
                static_cast<std::uint16_t>(aop.srcThread) != thread) {
                const auto src =
                    static_cast<std::uint16_t>(aop.srcThread);
                const std::uint64_t src_epoch =
                    board.epochAt(src, aop.srcRelease);
                const Tick lat = std::max<Tick>(acc.latency, 1);
                model().acquire(src, src_epoch, [this, src, src_epoch,
                                                 lat]() {
                    if (log && src_epoch != 0) {
                        log->recordEdge(thread, model().currentEpoch(),
                                        src, src_epoch);
                    }
                    scheduleNext(lat);
                });
                return;
            }
            scheduleNext(std::max<Tick>(acc.latency, 1));
        };
        if (aop.srcThread >= 0) {
            board.wait(static_cast<std::uint16_t>(aop.srcThread),
                       aop.srcRelease, [this, proceed]() {
                // Lock handoff: the released line travels
                // cache-to-cache before the spinner proceeds.
                eq.scheduleAfter(cfg.cacheToCacheLatency, proceed);
            });
        } else {
            proceed();
        }
        return;
      }

      case OpType::End:
        // Threads drain their persistence state before exiting.
        model().dfence([this]() {
            done = true;
            doneTick = eq.now();
            stats.inc("core.threadsFinished");
        });
        return;
    }
    panic("unhandled op type");
}

} // namespace asap
