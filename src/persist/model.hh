/**
 * @file
 * Persistence model interface.
 *
 * One instance per core. The replay core calls these hooks when the
 * corresponding trace operations retire; the model implements the
 * hardware persistency semantics (Baseline, HOPS, ASAP, eADR). All
 * hooks are asynchronous: completion callbacks decouple persist-path
 * latency from the core.
 */

#ifndef ASAP_PERSIST_MODEL_HH
#define ASAP_PERSIST_MODEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "mem/memory_controller.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace asap
{

class PersistModel;

/** Everything a model needs to reach the rest of the system. */
struct ModelContext
{
    const SimConfig &cfg;
    EventQueue &eq;
    StatSet &stats;
    AddressMap &amap;
    std::vector<MemoryController *> &mcs;
    /** Functional media (eADR's crash drain writes it directly). */
    NvmContents *media = nullptr;
    /** eADR's battery-protected dirty data: one *coherent* map shared
     *  by every core (the cache hierarchy holds a single copy of each
     *  line), so the crash drain preserves cross-core write order.
     *  The first EadrModel creates it. */
    std::shared_ptr<std::unordered_map<std::uint64_t, std::uint64_t>>
        eadrDirty;
    /** Peer models by thread id; populated after construction. */
    std::vector<PersistModel *> peers;
};

/** Per-core persistency hardware. */
class PersistModel
{
  public:
    using Callback = std::function<void()>;

    PersistModel(std::uint16_t thread, ModelContext &ctx)
        : thread(thread), ctx(ctx)
    {
    }

    virtual ~PersistModel() = default;

    /**
     * A PM store retires. @p done fires when the store is accepted by
     * the persist path (deferred when a persist buffer is full).
     */
    virtual void pmStore(std::uint64_t line, std::uint64_t value,
                         Callback done) = 0;

    /** Intra-thread ordering barrier (2-sided). */
    virtual void ofence(Callback done) = 0;

    /** Durability barrier: @p done once all prior writes persisted. */
    virtual void dfence(Callback done) = 0;

    /**
     * Release-side 1-sided barrier (release persistency): closes the
     * current epoch so a later acquire can depend on it.
     */
    virtual void release(Callback done) = 0;

    /**
     * Acquire-side 1-sided barrier: the new epoch depends on
     * (@p src_thread, @p src_epoch) — the epoch current at the
     * matching release. Pass src_thread == thread (self) or
     * src_epoch == 0 for an unsynchronised acquire (no dependency).
     * Models without epoch hardware create no dependency.
     */
    virtual void
    acquire(std::uint16_t src_thread, std::uint64_t src_epoch,
            Callback done)
    {
        (void)src_thread;
        (void)src_epoch;
        done();
    }

    /**
     * This core received a coherence forward for a line it modified
     * (epoch persistency conflict). Closes the current epoch and
     * returns the epoch the requester must depend on; 0 (models
     * without epoch hardware) means no dependency.
     */
    virtual std::uint64_t
    conflictSource(std::uint16_t requester)
    {
        (void)requester;
        return 0;
    }

    /**
     * This core issued a conflicting access to a line modified by
     * @p src_thread in @p src_epoch: start a dependent epoch.
     */
    virtual void conflictDependent(std::uint16_t src_thread,
                                   std::uint64_t src_epoch)
    {
        (void)src_thread;
        (void)src_epoch;
    }

    /** Epoch timestamp new writes would join right now. */
    virtual std::uint64_t currentEpoch() const = 0;

    /** Newest epoch guaranteed durable right now (0 = none). */
    virtual std::uint64_t lastCommittedEpoch() const { return 0; }

    /** Power failure: drop volatile persist-path state. */
    virtual void crash() = 0;

    /**
     * Epochs whose commit protocol is in flight at this instant
     * (commit messages sent, not all ACKs received). The crash-state
     * permuter treats each (MC, in-flight epoch) commit application
     * as an independently orderable atom. Models without a commit
     * message exchange report none.
     */
    virtual std::vector<std::uint64_t>
    commitInFlightEpochs() const
    {
        return {};
    }

    std::uint16_t threadId() const { return thread; }

  protected:
    std::uint16_t thread;
    ModelContext &ctx;
};

} // namespace asap

#endif // ASAP_PERSIST_MODEL_HH
