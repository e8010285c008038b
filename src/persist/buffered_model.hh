/**
 * @file
 * Buffered persistency hardware shared by HOPS and ASAP.
 *
 * Both models give each core a persist buffer and an epoch table
 * (Sections IV-V): stores join the current epoch and queue in the
 * buffer, ordering barriers close epochs, a durability barrier waits
 * until every epoch committed, and acquires and coherence conflicts
 * open epochs that depend on another core's epoch. The models differ
 * in two decisions, which the subclasses supply: which queued writes
 * may flush (the classifier they pass to PersistBuffer::configure) and
 * how a dependent epoch learns that its source committed
 * (awaitSource).
 */

#ifndef ASAP_PERSIST_BUFFERED_MODEL_HH
#define ASAP_PERSIST_BUFFERED_MODEL_HH

#include <cstdint>

#include "persist/epoch_table.hh"
#include "persist/model.hh"
#include "persist/persist_buffer.hh"

namespace asap
{

/** Per-core persist buffer + epoch table. */
class BufferedModel : public PersistModel
{
  public:
    BufferedModel(std::uint16_t thread, ModelContext &ctx);

    // Callbacks in the epoch table and persist buffer hold `this`.
    BufferedModel(const BufferedModel &) = delete;
    BufferedModel &operator=(const BufferedModel &) = delete;

    void pmStore(std::uint64_t line, std::uint64_t value,
                 Callback done) override;
    void ofence(Callback done) override;
    void dfence(Callback done) override;
    void release(Callback done) override;
    void acquire(std::uint16_t src_thread, std::uint64_t src_epoch,
                 Callback done) override;
    std::uint64_t conflictSource(std::uint16_t requester) override;
    void conflictDependent(std::uint16_t src_thread,
                           std::uint64_t src_epoch) override;
    std::uint64_t currentEpoch() const override
    {
        return et.currentEpoch();
    }
    std::uint64_t lastCommittedEpoch() const override
    {
        return et.lastCommitted();
    }
    void crash() override;

    /** Epoch @p src_epoch of @p src_thread committed (CDR or poll). */
    void dependencyResolved(std::uint16_t src_thread,
                            std::uint64_t src_epoch);

  protected:
    /**
     * The current epoch now depends on (@p src_thread, @p src_epoch):
     * arrange for dependencyResolved() once that epoch commits.
     */
    virtual void awaitSource(std::uint16_t src_thread,
                             std::uint64_t src_epoch) = 0;

    EpochTable et;
    PersistBuffer pb;
    bool crashed = false;

  private:
    /** Close the current epoch (@p allow_overflow as in
     *  EpochTable::closeEpoch) and open one depending on
     *  (@p src_thread, @p src_epoch); then @p done. */
    void openDependent(bool allow_overflow, std::uint16_t src_thread,
                       std::uint64_t src_epoch, Callback done);

    // Hot counter resolved once at construction (see StatSet::counter).
    std::uint64_t *stDfenceStalled;
};

} // namespace asap

#endif // ASAP_PERSIST_BUFFERED_MODEL_HH
