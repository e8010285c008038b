#include "core/recovery_table.hh"

#include <algorithm>

#include "sim/log.hh"

namespace asap
{

RecoveryTable::RecoveryTable(unsigned mc_id, unsigned capacity,
                             StatSet &stats)
    : mcId(mc_id), capacity(capacity), stats(stats),
      statPrefix("rt" + std::to_string(mc_id) + "."),
      stMaxOcc{&stats.counter(statPrefix + "maxOccupancy"),
               &stats.counter("rt.maxOccupancy")},
      stDelayCoalesced{&stats.counter(statPrefix + "delayCoalesced"),
                       &stats.counter("rt.delayCoalesced")},
      stSameEpochWriteThrough{
          &stats.counter(statPrefix + "sameEpochWriteThrough"),
          &stats.counter("rt.sameEpochWriteThrough")},
      stNacks{&stats.counter(statPrefix + "nacks"),
              &stats.counter("rt.nacks")},
      stTotalDelay{&stats.counter(statPrefix + "totalDelay"),
                   &stats.counter("rt.totalDelay")},
      stTotalUndo{&stats.counter(statPrefix + "totalUndo"),
                  &stats.counter("rt.totalUndo")},
      stDelayAbsorbed{&stats.counter(statPrefix + "delayAbsorbed"),
                      &stats.counter("rt.delayAbsorbed")}
{
    fatal_if(capacity == 0, "recovery table needs at least one entry");
}

std::size_t
RecoveryTable::occupancy() const
{
    return undos.size() + delays.size();
}

void
RecoveryTable::statMax()
{
    const std::uint64_t occ = occupancy();
    if (occ > *stMaxOcc.rt)
        *stMaxOcc.rt = occ;
    if (occ > *stMaxOcc.agg)
        *stMaxOcc.agg = occ;
}

bool
RecoveryTable::nackPending(std::uint64_t line) const
{
    return nackBloom.test(line);
}

bool
RecoveryTable::hasUndo(std::uint64_t line) const
{
    return undos.count(line) != 0;
}

std::uint64_t
RecoveryTable::undoValue(std::uint64_t line) const
{
    auto it = undos.find(line);
    return it == undos.end() ? 0 : it->second.value;
}

FlushAction
RecoveryTable::onFlush(const FlushPacket &pkt, std::uint64_t current_value)
{
    auto uit = undos.find(pkt.line);

    // A later same-epoch flush to a line with a parked delay record
    // must coalesce into it — whatever happened to the undo record in
    // between — or the commit-time release would resurrect the older
    // parked value over the newer one.
    for (DelayRecord &d : delays) {
        if (d.line == pkt.line && d.thread == pkt.thread &&
            d.epoch == pkt.epoch) {
            d.value = pkt.value;
            inc(stDelayCoalesced);
            if (!pkt.early) {
                auto nit = nackedLines.find(pkt.line);
                if (nit != nackedLines.end()) {
                    nackedLines.erase(nit);
                    nackBloom.remove(pkt.line);
                }
            }
            return FlushAction::CreateDelay;
        }
    }

    if (!pkt.early) {
        // A (possibly retried) safe flush arrived: the NACK hold on
        // this line, if any, is lifted.
        auto nit = nackedLines.find(pkt.line);
        if (nit != nackedLines.end()) {
            nackedLines.erase(nit);
            nackBloom.remove(pkt.line);
        }
        if (uit != undos.end()) {
            if (uit->second.thread == pkt.thread &&
                uit->second.epoch == pkt.epoch) {
                // The undo record was created by this very epoch: the
                // speculative value in memory is an *older* write of
                // the same epoch (flushed early before the epoch
                // became safe), so the incoming value is newer and
                // must reach memory. The undo record keeps the
                // pre-epoch value for rewind.
                inc(stSameEpochWriteThrough);
                return FlushAction::WriteMemory;
            }
            // Memory already holds a speculative later value from a
            // younger epoch; the safe flush becomes the new safe
            // state inside the undo record (Table I, row 1 / col 2).
            uit->second.value = pkt.value;
            return FlushAction::SuppressWrite;
        }
        return FlushAction::WriteMemory;
    }

    // Early flush.
    if (uit != undos.end()) {
        // Write collision: park the value in a delay record
        // (Table I, row 2 / column 2).
        if (occupancy() >= capacity) {
            nackedLines.insert(pkt.line);
            nackBloom.insert(pkt.line);
            inc(stNacks);
            return FlushAction::Nack;
        }
        delays.push_back(
            DelayRecord{pkt.line, pkt.value, pkt.thread, pkt.epoch});
        inc(stTotalDelay);
        statMax();
        return FlushAction::CreateDelay;
    }

    // No undo record: snapshot the safe value and let the controller
    // speculatively update memory (Table I, row 2 / column 1).
    if (occupancy() >= capacity) {
        nackedLines.insert(pkt.line);
        nackBloom.insert(pkt.line);
        inc(stNacks);
        return FlushAction::Nack;
    }
    undos.emplace(pkt.line,
                  UndoRecord{current_value, pkt.thread, pkt.epoch});
    inc(stTotalUndo);
    statMax();
    return FlushAction::CreateUndoAndWrite;
}

void
RecoveryTable::onCommit(std::uint16_t thread, std::uint64_t epoch,
                        const WriteOutFn &write_out)
{
    // Delete the committing epoch's undo records first: its
    // speculative values in memory are now the safe values. Doing
    // this before releasing delay records makes a same-epoch delayed
    // value reach memory instead of being absorbed into a dying
    // undo record.
    for (auto it = undos.begin(); it != undos.end();) {
        if (it->second.thread == thread && it->second.epoch == epoch)
            it = undos.erase(it);
        else
            ++it;
    }

    // Release the epoch's delay records as if the flushes had just
    // arrived, now safe (Section V-C).
    for (auto it = delays.begin(); it != delays.end();) {
        if (it->thread == thread && it->epoch == epoch) {
            auto uit = undos.find(it->line);
            if (uit != undos.end()) {
                uit->second.value = it->value;
                inc(stDelayAbsorbed);
            } else {
                write_out(it->line, it->value);
            }
            it = delays.erase(it);
        } else {
            ++it;
        }
    }
}

void
RecoveryTable::onCrash(const WriteOutFn &write_out)
{
    // Rewind every speculative update; delay records belong to
    // uncommitted epochs and are discarded (Section V-E).
    for (const auto &[line, rec] : undos)
        write_out(line, rec.value);
    undos.clear();
    delays.clear();
}

void
RecoveryTable::exportRecords(std::vector<UndoRecordView> &undos_out,
                             std::vector<DelayRecordView> &delays_out) const
{
    undos_out.reserve(undos_out.size() + undos.size());
    for (const auto &[line, rec] : undos)
        undos_out.push_back({line, rec.value, rec.thread, rec.epoch});
    // The map iterates in hash order; sort by line so exports are
    // deterministic across runs and hosts.
    std::sort(undos_out.begin(), undos_out.end(),
              [](const UndoRecordView &a, const UndoRecordView &b) {
                  return a.line < b.line;
              });
    delays_out.reserve(delays_out.size() + delays.size());
    for (const DelayRecord &d : delays)
        delays_out.push_back({d.line, d.value, d.thread, d.epoch});
}

} // namespace asap
