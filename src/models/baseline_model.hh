/**
 * @file
 * Baseline model: Intel-style synchronous ordering.
 *
 * Replicates current Intel machines (Section VII "Baseline"): stores
 * write the caches; each persist barrier issues clwb for every line
 * written since the previous barrier and then an sfence that stalls
 * the core until every flush is acknowledged by its memory
 * controller. Lock releases flush-and-fence too, as recoverable PM
 * code must make its updates durable before publishing them.
 */

#ifndef ASAP_MODELS_BASELINE_MODEL_HH
#define ASAP_MODELS_BASELINE_MODEL_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "persist/model.hh"

namespace asap
{

/** Synchronous clwb + sfence persistence. */
class BaselineModel : public PersistModel
{
  public:
    BaselineModel(std::uint16_t thread, ModelContext &ctx)
        : PersistModel(thread, ctx),
          stClwbs(&ctx.stats.counter("baseline.clwbs")),
          stSfenceStalled(&ctx.stats.counter("core.sfenceStalled"))
    {
    }

    void
    pmStore(std::uint64_t line, std::uint64_t value, Callback done) override
    {
        writeSet[line] = value;
        done();
    }

    void ofence(Callback done) override { flushAndFence(std::move(done)); }
    void dfence(Callback done) override { flushAndFence(std::move(done)); }
    void release(Callback done) override { flushAndFence(std::move(done)); }

    std::uint64_t currentEpoch() const override { return epoch; }

    void
    crash() override
    {
        crashed = true;
        writeSet.clear(); // unflushed cached writes are lost
    }

  private:
    /** In-flight fence bookkeeping (shared by the clwb callbacks). */
    struct FenceState
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> lines;
        std::size_t nextIssue = 0;
        std::size_t remaining = 0;
        std::uint64_t ts = 0;
        Tick start = 0;
        Callback done;
    };

    /** Issue clwb for the write set, then stall until all ACKs. */
    void flushAndFence(Callback done);

    /** Issue the next clwb of @p st (bounded by clwbMaxInflight). */
    void issueNextClwb(const std::shared_ptr<FenceState> &st);

    std::unordered_map<std::uint64_t, std::uint64_t> writeSet;
    std::uint64_t epoch = 1;
    bool crashed = false;

    // Hot counters resolved once at construction (see StatSet::counter).
    std::uint64_t *stClwbs;
    std::uint64_t *stSfenceStalled;
};

} // namespace asap

#endif // ASAP_MODELS_BASELINE_MODEL_HH
