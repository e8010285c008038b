/**
 * @file
 * The ASAP persistence model (the paper's contribution).
 *
 * Per-core persist buffer + epoch table with *eager flushing*: queued
 * writes flush immediately, marked early when their epoch is not yet
 * safe. Memory controllers speculatively persist early flushes,
 * guarded by the Recovery Table. Commit protocol (Section V-C):
 * when the oldest epoch is safe and complete, the epoch table sends
 * commit messages to every controller that received one of its early
 * flushes; after all commit ACKs the epoch is committed and CDR
 * (Cross-thread Dependency Resolved) messages notify dependent
 * threads directly. NACKed flushes flip the persist buffer into
 * conservative flushing until the NACKed epoch commits (Section V-D).
 */

#ifndef ASAP_CORE_ASAP_MODEL_HH
#define ASAP_CORE_ASAP_MODEL_HH

#include <cstdint>
#include <vector>

#include "persist/buffered_model.hh"

namespace asap
{

/** ASAP per-core persistence hardware. */
class AsapModel : public BufferedModel
{
  public:
    AsapModel(std::uint16_t thread, ModelContext &ctx);

    /**
     * Register @p dep_thread for a CDR when @p epoch of this core
     * commits.
     * @return true if the epoch has already committed
     */
    bool registerDependent(std::uint16_t dep_thread, std::uint64_t epoch)
    {
        return et.registerDependent(dep_thread, epoch);
    }

    std::vector<std::uint64_t>
    commitInFlightEpochs() const override
    {
        std::vector<std::uint64_t> out;
        for (const EpochTable::Entry &e : et.inFlightEntries())
            if (e.commitInProgress)
                out.push_back(e.ts);
        return out;
    }

  protected:
    /** Register with the source core for a CDR; resolve at once if
     *  the source epoch already committed. */
    void awaitSource(std::uint16_t src_thread,
                     std::uint64_t src_epoch) override;

  private:
    /** The oldest epoch became safe + complete: run the commit
     *  protocol (commit messages to MCs, then CDRs). */
    void onCommittable(std::uint64_t ts);

    /** All commit ACKs received: finalize and send CDRs. */
    void finishCommit(std::uint64_t ts);

    FlushMode classify(std::uint64_t epoch) const;

    /** Non-zero: NACK received; eager flushing paused until the epoch
     *  with this timestamp commits. */
    std::uint64_t conservativeUntil = 0;

    // Hot counters resolved once at construction (see StatSet::counter).
    std::uint64_t *stConservativeFallbacks;
    std::uint64_t *stCommitMessages;
    std::uint64_t *stCdrMessages;
};

} // namespace asap

#endif // ASAP_CORE_ASAP_MODEL_HH
