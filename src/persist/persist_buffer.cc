#include "persist/persist_buffer.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"

namespace asap
{

PersistBuffer::PersistBuffer(std::uint16_t thread, const SimConfig &cfg,
                             EventQueue &eq, StatSet &stats,
                             AddressMap &amap,
                             std::vector<MemoryController *> &mcs)
    : thread(thread), cfg(cfg), eq(eq), stats(stats), amap(amap),
      mcs(mcs), statPrefix("pb" + std::to_string(thread) + "."),
      occDist(&stats.dist("pb.occupancy", cfg.pbEntries)),
      stCyclesBlocked(&stats.counter(statPrefix + "cyclesBlocked")),
      stCyclesBlockedAgg(&stats.counter("pb.cyclesBlocked")),
      stCoalesced(&stats.counter("pb.coalesced")),
      stFullEvents(&stats.counter("pb.fullEvents")),
      stEntriesInserted(&stats.counter("pb.entriesInserted")),
      stTotSpecWrites(&stats.counter("pb.totSpecWrites")),
      stNacksReceived(&stats.counter("pb.nacksReceived")),
      stCyclesStalled(&stats.counter("pb.cyclesStalled"))
{
    inflightLines.reserve(cfg.pbMaxInflight);
}

void
PersistBuffer::configure(ClassifyFn classify_fn, AckFn on_ack,
                         NackFn on_nack)
{
    classify = std::move(classify_fn);
    onAck = std::move(on_ack);
    onNack = std::move(on_nack);
}

void
PersistBuffer::accountOccupancy()
{
    const Tick now = eq.now();
    if (now > lastOccChange)
        occDist->sample(occupancy(), now - lastOccChange);
    lastOccChange = now;
}

void
PersistBuffer::enqueue(std::uint64_t line, std::uint64_t value,
                       std::uint64_t epoch, Callback accepted)
{
    if (crashed)
        return;
    // Coalesce with a queued (not yet dispatched) write of the same
    // line in the same epoch. The surviving entry produces a single
    // MC acknowledgement, so the swallowed store is acknowledged to
    // the epoch table immediately.
    for (auto it = queued.rbegin(); it != queued.rend(); ++it) {
        if (it->line == line && it->epoch == epoch) {
            it->value = value;
            ++*stCoalesced;
            accepted();
            onAck(epoch, line, /*early=*/false);
            return;
        }
    }
    if (occupancy() >= cfg.pbEntries) {
        ++*stFullEvents;
        stalledStores.push_back(
            StalledStore{PbEntry{line, value, epoch, false},
                         std::move(accepted), eq.now()});
        return;
    }
    accountOccupancy();
    queued.push_back(PbEntry{line, value, epoch, false});
    ++totalEnqueued;
    ++*stEntriesInserted;
    accepted();
    tryFlush();
}

void
PersistBuffer::tryFlush()
{
    if (crashed)
        return;
    // Cycles since the last call were blocked if that call left the
    // buffer holding only entries it may not flush.
    const Tick now = eq.now();
    if (wasBlocked && now > lastBlockedCheck) {
        *stCyclesBlockedAgg += now - lastBlockedCheck;
        *stCyclesBlocked += now - lastBlockedCheck;
    }
    lastBlockedCheck = now;

    // Dispatching changes no epoch state, so an epoch's class holds
    // for the whole call; a queue holds its epochs in runs, so keeping
    // the last answer classifies each epoch about once per scan.
    std::uint64_t knownEpoch = ~std::uint64_t{0}; // no epoch has this ts
    FlushMode knownMode = FlushMode::Hold;
    auto flushable = [&](const PbEntry &e) {
        if (e.epoch != knownEpoch) {
            knownEpoch = e.epoch;
            knownMode = classify(e.epoch);
        }
        return knownMode == FlushMode::Safe ||
               (knownMode == FlushMode::Early && !e.nacked);
    };
    // Same-line flushes stay in order: a line with an earlier queued or
    // in-flight entry is held back, so the recovery table sees
    // same-line values in write order.
    auto lineBlocked = [&](std::size_t i) {
        const std::uint64_t line = queued[i].line;
        const auto end = queued.begin() + static_cast<std::ptrdiff_t>(i);
        return std::any_of(queued.begin(), end,
                           [line](const PbEntry &e) {
                               return e.line == line;
                           }) ||
               std::find(inflightLines.begin(), inflightLines.end(),
                         line) != inflightLines.end();
    };

    // Oldest flushable entry first. An entry passed over stays passed
    // over for the rest of the call (its class is fixed, and whatever
    // blocks its line is still queued or now in flight), so each
    // search resumes at the slot the last dispatch emptied.
    std::size_t i = 0;
    while (numInflight < cfg.pbMaxInflight) {
        while (i < queued.size() &&
               (!flushable(queued[i]) || lineBlocked(i)))
            ++i;
        if (i == queued.size())
            break;
        dispatch(i, knownMode == FlushMode::Early);
    }
    wasBlocked = !queued.empty() &&
                 std::none_of(queued.begin(), queued.end(), flushable);
}

void
PersistBuffer::dispatch(std::size_t idx, bool early)
{
    PbEntry entry = queued[idx];
    queued.erase(queued.begin() + static_cast<std::ptrdiff_t>(idx));
    ++numInflight;
    inflightLines.push_back(entry.line);
    accountOccupancy();

    FlushPacket pkt{entry.line, entry.value, thread, entry.epoch, early};
    const unsigned mc = amap.mcFor(entry.line);
    if (early) {
        ++*stTotSpecWrites;
    }

    // Forward link latency, then controller processing, then the
    // reply (the controller schedules the reply-side latency). The
    // arrival executes in the target controller's event domain; the
    // reply callback comes back via a core-domain ACK event.
    eq.scheduleAfterIn(EventQueue::mcDomain(mc), cfg.pbFlushLatency,
                       [this, pkt, mc, entry]() {
        if (crashed)
            return;
        mcs[mc]->receiveFlush(pkt, [this, pkt, mc, entry]
                              (FlushReply reply) {
            if (crashed)
                return;
            --numInflight;
            auto lit = std::find(inflightLines.begin(),
                                 inflightLines.end(), pkt.line);
            if (lit != inflightLines.end())
                inflightLines.erase(lit);
            accountOccupancy();
            if (reply == FlushReply::Ack) {
                ++totalAcked;
                onAck(pkt.epoch, pkt.line, pkt.early);
            } else {
                // NACK: requeue; the entry must wait until its epoch
                // is safe and then retry as a safe flush.
                ++*stNacksReceived;
                PbEntry back = entry;
                back.nacked = true;
                queued.push_front(back);
                accountOccupancy();
                onNack(pkt.epoch, pkt.line);
            }
            // Freed a slot: admit a stalled store.
            while (!stalledStores.empty() &&
                   occupancy() < cfg.pbEntries) {
                StalledStore s = std::move(stalledStores.front());
                stalledStores.pop_front();
                *stCyclesStalled += eq.now() - s.since;
                accountOccupancy();
                queued.push_back(s.entry);
                ++totalEnqueued;
                ++*stEntriesInserted;
                s.accepted();
            }
            tryFlush();
        });
    });
}

void
PersistBuffer::crash()
{
    crashed = true;
    queued.clear();
    stalledStores.clear();
    inflightLines.clear();
    numInflight = 0;
}

} // namespace asap
