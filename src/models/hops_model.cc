#include "models/hops_model.hh"

#include "sim/log.hh"

namespace asap
{

HopsModel::HopsModel(std::uint16_t thread, ModelContext &ctx)
    : BufferedModel(thread, ctx),
      stTsUpdates(&ctx.stats.counter("hops.tsUpdates")),
      stPolls(&ctx.stats.counter("hops.polls"))
{
    et.setCommittableHook([this](std::uint64_t ts) {
        // No controller-side protocol: safe + complete commits
        // immediately; the commit is published by updating the global
        // timestamp register that dependents poll.
        ++*stTsUpdates;
        std::vector<std::uint16_t> deps = et.markCommitted(ts);
        // Dependents discover the commit by polling; nothing to send.
        (void)deps;
        pb.kick();
    });
    pb.configure(
        [this](std::uint64_t epoch) {
            // Conservative flushing: only the safe (oldest) epoch.
            return et.isSafe(epoch) ? FlushMode::Safe : FlushMode::Hold;
        },
        [this](std::uint64_t epoch, std::uint64_t, bool) {
            et.ackWrite(epoch);
        },
        [](std::uint64_t, std::uint64_t) {
            panic("HOPS received a NACK: safe flushes are never NACKed");
        });
}

void
HopsModel::awaitSource(std::uint16_t src_thread, std::uint64_t src_epoch)
{
    // Poll the global timestamp register every hopsPollPeriod cycles;
    // each access takes hopsPollCost cycles (Section VII's corrected
    // polling implementation).
    if (src_epoch <= ctx.peers[src_thread]->lastCommittedEpoch()) {
        // Committed before we even started waiting: resolve after a
        // single register read.
        ++*stPolls;
        ctx.eq.scheduleAfter(ctx.cfg.hopsPollCost,
                             [this, src_thread, src_epoch]() {
            if (crashed)
                return;
            dependencyResolved(src_thread, src_epoch);
        });
        return;
    }
    ctx.eq.scheduleAfter(ctx.cfg.hopsPollPeriod,
                         [this, src_thread, src_epoch]() {
        if (crashed)
            return;
        ++*stPolls;
        if (src_epoch <= ctx.peers[src_thread]->lastCommittedEpoch()) {
            ctx.eq.scheduleAfter(ctx.cfg.hopsPollCost,
                                 [this, src_thread, src_epoch]() {
                if (crashed)
                    return;
                dependencyResolved(src_thread, src_epoch);
            });
        } else {
            awaitSource(src_thread, src_epoch);
        }
    });
}

} // namespace asap
