/**
 * @file
 * eADR / BBB ideal model.
 *
 * With enhanced ADR the persistence domain covers the entire cache
 * hierarchy (Section II-C): stores are durable the moment they retire,
 * no flush or ordering instruction stalls, and on power failure a
 * battery drains all dirty data to NVM. BBB's battery-backed persist
 * buffers perform within a hair of eADR (the paper plots them as one
 * curve), so a single model stands for both.
 */

#ifndef ASAP_MODELS_EADR_MODEL_HH
#define ASAP_MODELS_EADR_MODEL_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "persist/model.hh"

namespace asap
{

/** Battery-backed ideal: persistence for free. */
class EadrModel : public PersistModel
{
  public:
    EadrModel(std::uint16_t thread, ModelContext &ctx)
        : PersistModel(thread, ctx)
    {
        // The first core creates the map every core shares.
        if (!ctx.eadrDirty) {
            ctx.eadrDirty = std::make_shared<
                std::unordered_map<std::uint64_t, std::uint64_t>>();
        }
    }

    void
    pmStore(std::uint64_t line, std::uint64_t value, Callback done) override
    {
        // One coherent copy per line across the whole hierarchy.
        (*ctx.eadrDirty)[line] = value;
        // The write is already durable (battery), but it still drains
        // to the media in the background and consumes NVM bandwidth.
        drainQueue.push_back({line, value});
        tryDrain();
        done();
    }

    void ofence(Callback done) override { done(); }

    void
    dfence(Callback done) override
    {
        // Residual pipeline cost of the (now trivial) fence.
        ctx.eq.scheduleAfter(ctx.cfg.eadrDfenceCost, std::move(done));
    }

    void release(Callback done) override { done(); }

    std::uint64_t currentEpoch() const override { return 1; }

    std::uint64_t
    lastCommittedEpoch() const override
    {
        return ~std::uint64_t(0); // everything written is durable
    }

    void
    crash() override
    {
        // The battery drains every cached dirty line to the media.
        // The map is shared; the first model to crash drains it.
        if (ctx.media) {
            ctx.stats.inc("eadr.batteryDrainWrites",
                          ctx.eadrDirty->size());
            for (const auto &[line, value] : *ctx.eadrDirty)
                ctx.media->write(line, value);
            ctx.eadrDirty->clear();
        }
    }

  private:
    /** Background write-back of battery-protected dirty data. */
    void
    tryDrain()
    {
        while (drainInflight < ctx.cfg.pbMaxInflight &&
               !drainQueue.empty()) {
            auto [line, value] = drainQueue.front();
            drainQueue.pop_front();
            ++drainInflight;
            FlushPacket pkt{line, value, thread, 1, /*early=*/false};
            const unsigned mc = ctx.amap.mcFor(line);
            ctx.eq.scheduleAfterIn(EventQueue::mcDomain(mc),
                                   ctx.cfg.pbFlushLatency,
                                   [this, pkt, mc]() {
                ctx.mcs[mc]->receiveFlush(pkt, [this](FlushReply) {
                    --drainInflight;
                    tryDrain();
                });
            });
        }
    }

    std::deque<std::pair<std::uint64_t, std::uint64_t>> drainQueue;
    unsigned drainInflight = 0;
};

} // namespace asap

#endif // ASAP_MODELS_EADR_MODEL_HH
