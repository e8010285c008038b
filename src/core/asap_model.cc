#include "core/asap_model.hh"

#include <memory>

#include "sim/log.hh"

namespace asap
{

AsapModel::AsapModel(std::uint16_t thread, ModelContext &ctx)
    : BufferedModel(thread, ctx),
      stConservativeFallbacks(
          &ctx.stats.counter("asap.conservativeFallbacks")),
      stCommitMessages(&ctx.stats.counter("asap.commitMessages")),
      stCdrMessages(&ctx.stats.counter("asap.cdrMessages"))
{
    et.setCommittableHook([this](std::uint64_t ts) { onCommittable(ts); });
    pb.configure(
        [this](std::uint64_t epoch) { return classify(epoch); },
        [this](std::uint64_t epoch, std::uint64_t line, bool early) {
            if (early)
                et.markEarlyMc(epoch, this->ctx.amap.mcFor(line));
            et.ackWrite(epoch);
        },
        [this](std::uint64_t epoch, std::uint64_t line) {
            (void)line;
            // NACK: fall back to conservative flushing until this
            // epoch commits (Section V-D).
            if (epoch > conservativeUntil)
                conservativeUntil = epoch;
            ++*stConservativeFallbacks;
        });
}

FlushMode
AsapModel::classify(std::uint64_t epoch) const
{
    if (et.isSafe(epoch))
        return FlushMode::Safe;
    if (conservativeUntil != 0)
        return FlushMode::Hold;
    return FlushMode::Early;
}

void
AsapModel::awaitSource(std::uint16_t src_thread, std::uint64_t src_epoch)
{
    // A System runs one model kind: every peer is an AsapModel.
    if (static_cast<AsapModel *>(ctx.peers[src_thread])
            ->registerDependent(thread, src_epoch))
        et.resolveDependency(src_thread, src_epoch);
}

void
AsapModel::onCommittable(std::uint64_t ts)
{
    const EpochTable::Entry *e = et.find(ts);
    panic_if(!e, "committable hook for unknown epoch ", ts);
    const std::uint32_t mask = e->earlyMcMask;
    if (mask == 0) {
        finishCommit(ts);
        return;
    }
    // Send commit messages to every controller that received early
    // flushes from this epoch; commit completes on the last ACK.
    auto remaining = std::make_shared<unsigned>(0);
    for (unsigned mc = 0; mc < ctx.mcs.size(); ++mc) {
        if (mask & (1u << mc))
            ++*remaining;
    }
    for (unsigned mc = 0; mc < ctx.mcs.size(); ++mc) {
        if (!(mask & (1u << mc)))
            continue;
        ++*stCommitMessages;
        ctx.eq.scheduleAfterIn(EventQueue::mcDomain(mc),
                               ctx.cfg.mcMessageLatency,
                               [this, mc, ts, remaining]() {
            if (crashed)
                return;
            ctx.mcs[mc]->receiveCommit(thread, ts,
                                       [this, ts, remaining]() {
                if (crashed)
                    return;
                if (--*remaining == 0)
                    finishCommit(ts);
            });
        });
    }
}

void
AsapModel::finishCommit(std::uint64_t ts)
{
    std::vector<std::uint16_t> dependents = et.markCommitted(ts);
    if (conservativeUntil != 0 && ts >= conservativeUntil) {
        conservativeUntil = 0; // eager flushing resumes
    }
    for (std::uint16_t dep : dependents) {
        ++*stCdrMessages;
        ctx.eq.scheduleAfter(ctx.cfg.interCoreLatency,
                             [this, dep, ts]() {
            if (crashed)
                return;
            static_cast<AsapModel *>(ctx.peers[dep])
                ->dependencyResolved(thread, ts);
        });
    }
    pb.kick();
}

} // namespace asap
