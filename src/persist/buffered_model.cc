#include "persist/buffered_model.hh"

#include <utility>

namespace asap
{

BufferedModel::BufferedModel(std::uint16_t thread, ModelContext &ctx)
    : PersistModel(thread, ctx),
      et(thread, ctx.cfg.etEntries, ctx.stats),
      pb(thread, ctx.cfg, ctx.eq, ctx.stats, ctx.amap, ctx.mcs),
      stDfenceStalled(&ctx.stats.counter("core.dfenceStalled"))
{
}

void
BufferedModel::pmStore(std::uint64_t line, std::uint64_t value,
                       Callback done)
{
    const std::uint64_t ts = et.currentEpoch();
    et.addWrite(ts);
    pb.enqueue(line, value, ts, std::move(done));
}

void
BufferedModel::ofence(Callback done)
{
    et.closeEpoch(false, [this, done = std::move(done)]() {
        pb.kick();
        done();
    });
}

void
BufferedModel::dfence(Callback done)
{
    const Tick start = ctx.eq.now();
    et.closeEpoch(false, [this, start, done = std::move(done)]() {
        pb.kick();
        et.waitAllCommitted([this, start, done]() {
            *stDfenceStalled += ctx.eq.now() - start;
            done();
        });
    });
}

void
BufferedModel::release(Callback done)
{
    // 1-sided barrier: close the epoch so the matching acquire can
    // depend on everything before the release.
    ofence(std::move(done));
}

void
BufferedModel::acquire(std::uint16_t src_thread, std::uint64_t src_epoch,
                       Callback done)
{
    if (src_epoch == 0 || src_thread == thread) {
        // Unsynchronised acquire (first lock acquisition or self).
        done();
        return;
    }
    openDependent(false, src_thread, src_epoch, std::move(done));
}

std::uint64_t
BufferedModel::conflictSource(std::uint16_t requester)
{
    (void)requester;
    const std::uint64_t cur = et.currentEpoch();
    // Reply with the current epoch and start a new one (epoch
    // deadlock avoidance, Section IV-E); never block the coherence
    // response on table space.
    et.closeEpoch(true, []() {});
    pb.kick();
    return cur;
}

void
BufferedModel::conflictDependent(std::uint16_t src_thread,
                                 std::uint64_t src_epoch)
{
    openDependent(true, src_thread, src_epoch, []() {});
}

void
BufferedModel::openDependent(bool allow_overflow, std::uint16_t src_thread,
                             std::uint64_t src_epoch, Callback done)
{
    et.closeEpoch(allow_overflow, [this, src_thread, src_epoch,
                                   done = std::move(done)]() {
        et.openDependentEpoch(src_thread, src_epoch);
        awaitSource(src_thread, src_epoch);
        pb.kick();
        done();
    });
}

void
BufferedModel::dependencyResolved(std::uint16_t src_thread,
                                  std::uint64_t src_epoch)
{
    et.resolveDependency(src_thread, src_epoch);
    pb.kick();
}

void
BufferedModel::crash()
{
    crashed = true;
    pb.crash();
}

} // namespace asap
