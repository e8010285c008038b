/**
 * @file
 * Simulated system: wires cores, caches, persistence models, memory
 * controllers and recovery tables together, replays a trace set and
 * exports gem5-style stats (Table VI).
 */

#ifndef ASAP_HARNESS_SYSTEM_HH
#define ASAP_HARNESS_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coherence/cache_hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/op.hh"
#include "cpu/op_source.hh"
#include "cpu/release_board.hh"
#include "core/recovery_table.hh"
#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "mem/nvm_contents.hh"
#include "persist/model.hh"
#include "recovery/run_log.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace asap
{

/** A complete simulated machine. */
class System
{
  public:
    /**
     * Build the machine described by @p cfg.
     *
     * @param cfg configuration (model kind, sizes, latencies)
     * @param keep_run_log record stores/edges for the recovery checker
     */
    explicit System(const SimConfig &cfg, bool keep_run_log = false);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Install the traces (one stream per core) and create the cores.
     *  The system takes ownership of the trace set (wrapped in a
     *  MaterializedSource — byte-identical to the classic replay). */
    void loadTrace(TraceSet traces);

    /**
     * Install a streaming op source (one stream per core) and create
     * the cores. The source is NOT owned; it must outlive run(). This
     * is the constant-memory path used by src/serve/ scenarios.
     */
    void loadStream(OpSource &src);

    /**
     * Run to completion.
     * @return true if every core finished (false: hit maxRunTicks —
     *         treated as a deadlock and reported)
     */
    bool run();

    /**
     * Run until @p tick, then inject a power failure: cores halt,
     * models drop volatile state (eADR drains its battery), memory
     * controllers flush their ADR domain and rewind speculation.
     *
     * @p at_crash, if set, runs at the instant of failure — after the
     * cores halt but before any model or controller processes the
     * crash. The crash-state permuter uses it to snapshot the live
     * persist-path state (WPQ contents, recovery-policy records,
     * commit-in-flight epochs) that the canonical drain consumes.
     */
    void crashAt(Tick tick,
                 const std::function<void()> &at_crash = {});

    /** Wall-clock of the run: last core completion (or crash) time. */
    Tick runTicks() const { return runTicks_; }

    /** Per-thread newest epoch guaranteed durable at this moment. */
    std::vector<std::uint64_t> committedUpTo() const;

    StatSet &stats() { return stats_; }
    NvmContents &nvm() { return media; }
    RunLog &runLog() { return log; }
    EventQueue &eventQueue() { return eq; }
    PersistModel &model(std::uint16_t thread) { return *models[thread]; }
    MemoryController &mc(unsigned i) { return *mcs[i]; }
    const SimConfig &config() const { return cfg; }

  private:
    SimConfig cfg;
    EventQueue eq;
    StatSet stats_;
    NvmContents media;
    AddressMap amap;
    RunLog log;
    bool keepRunLog;

    std::vector<std::unique_ptr<MemoryController>> mcOwners;
    std::vector<MemoryController *> mcs;
    std::vector<std::unique_ptr<RecoveryTable>> rts;
    std::unique_ptr<CacheHierarchy> caches;
    std::unique_ptr<ReleaseBoard> board;
    std::unique_ptr<ModelContext> ctx;
    std::vector<std::unique_ptr<PersistModel>> modelOwners;
    std::vector<PersistModel *> models;
    std::unique_ptr<MaterializedSource> ownedSource; //!< loadTrace path
    std::vector<std::unique_ptr<Core>> cores;

    Tick runTicks_ = 0;
    bool crashed = false;
};

} // namespace asap

#endif // ASAP_HARNESS_SYSTEM_HH
