/**
 * @file
 * Timing core: replays one thread's trace.
 *
 * A simple in-order timing core (the role gem5's TimingSimpleCPU plays
 * in the artifact's warmup phases): loads block for their cache
 * latency, stores retire in a cycle into the caches and the persist
 * path, fences invoke the persistence model and stall as long as the
 * model defers completion, and acquires block on the release board
 * until the matching release has executed in simulated time.
 *
 * Under epoch persistency the core turns directory conflicts into
 * cross-thread epoch dependencies (conflictSource / conflictDependent
 * on the models; models without epoch hardware answer "no
 * dependency"); under release persistency only acquire/release
 * create dependencies and conflicts are ignored (race-free code,
 * Section IV-E). The core never asks which model it drives.
 */

#ifndef ASAP_CPU_CORE_HH
#define ASAP_CPU_CORE_HH

#include <cstdint>
#include <vector>

#include "coherence/cache_hierarchy.hh"
#include "cpu/op.hh"
#include "cpu/op_source.hh"
#include "cpu/release_board.hh"
#include "persist/model.hh"
#include "recovery/run_log.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace asap
{

/** One replaying core. */
class Core
{
  public:
    Core(std::uint16_t thread, const SimConfig &cfg, EventQueue &eq,
         StatSet &stats, CacheHierarchy &caches, ReleaseBoard &board,
         std::vector<PersistModel *> &models, RunLog *log,
         OpSource &src);

    /** Schedule the first operation. */
    void start();

    bool finished() const { return done; }
    Tick finishTick() const { return doneTick; }

    /** Stop processing (crash injection). */
    void halt() { halted = true; }

    /** Operations retired so far. */
    std::uint64_t retired() const { return pc; }

  private:
    void next();
    void scheduleNext(Tick delay);

    /** Handle a directory conflict under epoch persistency. */
    void handleConflict(const CacheAccess &acc);

    PersistModel &model() { return *models[thread]; }

    std::uint16_t thread;
    const SimConfig &cfg;
    EventQueue &eq;
    StatSet &stats;
    CacheHierarchy &caches;
    ReleaseBoard &board;
    std::vector<PersistModel *> &models;
    RunLog *log;
    OpSource &src;

    bool epConflicts; //!< EP: conflicts (not acquires) raise deps

    // Hot counters resolved once at construction (see StatSet::counter).
    std::uint64_t *stOpsRetired;
    std::uint64_t *stPmStores;
    std::uint64_t *stOfences;
    std::uint64_t *stDfences;
    std::uint64_t *stReleases;
    std::uint64_t *stAcquires;
    LogHistogram *stPersistLat; //!< dfence issue→complete tick deltas

    std::size_t pc = 0;
    bool done = false;
    bool halted = false;
    Tick doneTick = 0;
};

} // namespace asap

#endif // ASAP_CPU_CORE_HH
