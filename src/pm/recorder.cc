#include "pm/recorder.hh"

#include <cstdlib>

namespace asap
{

namespace
{

std::uint64_t
initialTraceOpCap()
{
    if (const char *env = std::getenv("ASAP_MAX_TRACE_OPS"))
        return std::strtoull(env, nullptr, 0);
    return 32ull << 20; // 32 M ops ≈ 1.3 GB of TraceOps
}

std::uint64_t &
traceOpCapSlot()
{
    static std::uint64_t cap = initialTraceOpCap();
    return cap;
}

} // namespace

std::uint64_t
TraceRecorder::traceOpCap()
{
    return traceOpCapSlot();
}

void
TraceRecorder::setTraceOpCap(std::uint64_t cap)
{
    traceOpCapSlot() = cap;
}

TraceRecorder::TraceRecorder(unsigned num_threads, std::uint64_t seed)
    : nThreads(num_threads), rng_(seed),
      traces(num_threads), releaseCount(num_threads, 0)
{
    fatal_if(num_threads == 0, "recorder needs at least one thread");
}

void
TraceRecorder::push(unsigned t, TraceOp op)
{
    panic_if(finished, "recording after finish()");
    panic_if(t >= nThreads, "recording on unknown thread ", t);
    const std::uint64_t cap = traceOpCap();
    ++totalOps;
    fatal_if(cap != 0 && totalOps > cap,
             "materialized trace exceeds the ", cap, "-op cap; runs "
             "this large should stream ops instead of materializing "
             "them — use a serve:* scenario (src/serve/, serve_bench) "
             "or raise ASAP_MAX_TRACE_OPS");
    traces.threads[t].push_back(op);
}

std::uint64_t
TraceRecorder::nextToken(unsigned t)
{
    // Unique, never zero: thread in the top bits, sequence below.
    return (static_cast<std::uint64_t>(t + 1) << 44) | tokenSeq++;
}

PmLock
TraceRecorder::makeLock()
{
    PmLock lock;
    lock.addr = pm.allocVolatile(lineBytes, lineBytes);
    return lock;
}

std::uint64_t
TraceRecorder::load64(unsigned t, std::uint64_t addr)
{
    TraceOp op;
    op.type = OpType::Load;
    op.isPm = true;
    op.addr = addr;
    push(t, op);
    return pm.read64(addr);
}

void
TraceRecorder::store64(unsigned t, std::uint64_t addr, std::uint64_t value)
{
    pm.write64(addr, value);
    TraceOp op;
    op.type = OpType::Store;
    op.isPm = true;
    op.addr = addr;
    op.value = nextToken(t);
    push(t, op);
}

void
TraceRecorder::storeBytes(unsigned t, std::uint64_t addr, const void *src,
                          std::size_t n)
{
    if (src) {
        pm.writeBytes(addr, src, n);
    } else {
        std::vector<std::uint8_t> zeros(n, 0);
        pm.writeBytes(addr, zeros.data(), n);
    }
    // One persist-path store per touched line.
    const std::uint64_t first = lineOf(addr);
    const std::uint64_t last = lineOf(addr + (n ? n - 1 : 0));
    for (std::uint64_t line = first; line <= last; ++line) {
        TraceOp op;
        op.type = OpType::Store;
        op.isPm = true;
        op.addr = line * lineBytes;
        op.value = nextToken(t);
        push(t, op);
    }
}

void
TraceRecorder::loadBytes(unsigned t, std::uint64_t addr, void *dst,
                         std::size_t n)
{
    if (dst)
        pm.readBytes(addr, dst, n);
    const std::uint64_t first = lineOf(addr);
    const std::uint64_t last = lineOf(addr + (n ? n - 1 : 0));
    for (std::uint64_t line = first; line <= last; ++line) {
        TraceOp op;
        op.type = OpType::Load;
        op.isPm = true;
        op.addr = line * lineBytes;
        push(t, op);
    }
}

std::uint64_t
TraceRecorder::vload64(unsigned t, std::uint64_t addr)
{
    TraceOp op;
    op.type = OpType::Load;
    op.isPm = false;
    op.addr = addr;
    push(t, op);
    return 0; // volatile space has no functional backing store
}

void
TraceRecorder::vstore64(unsigned t, std::uint64_t addr, std::uint64_t)
{
    TraceOp op;
    op.type = OpType::Store;
    op.isPm = false;
    op.addr = addr;
    push(t, op);
}

void
TraceRecorder::compute(unsigned t, std::uint32_t cycles)
{
    if (cycles == 0)
        return;
    // Merge adjacent compute gaps to keep traces compact.
    auto &ops = traces.threads[t];
    if (!ops.empty() && ops.back().type == OpType::Compute) {
        ops.back().cycles += cycles;
        return;
    }
    TraceOp op;
    op.type = OpType::Compute;
    op.cycles = cycles;
    push(t, op);
}

void
TraceRecorder::ofence(unsigned t)
{
    TraceOp op;
    op.type = OpType::OFence;
    push(t, op);
}

void
TraceRecorder::dfence(unsigned t)
{
    TraceOp op;
    op.type = OpType::DFence;
    push(t, op);
}

void
TraceRecorder::lockAcquire(unsigned t, PmLock &lock)
{
    panic_if(lock.holder >= 0, "generation-time deadlock: lock held by ",
             lock.holder, " while thread ", t, " acquires");
    lock.holder = static_cast<std::int32_t>(t);
    TraceOp op;
    op.type = OpType::Acquire;
    op.addr = lock.addr;
    op.srcThread = lock.lastReleaser;
    op.srcRelease = lock.lastReleaseOrdinal;
    push(t, op);
}

void
TraceRecorder::lockRelease(unsigned t, PmLock &lock)
{
    panic_if(lock.holder != static_cast<std::int32_t>(t),
             "thread ", t, " releasing a lock it does not hold");
    lock.holder = -1;
    lock.lastReleaser = static_cast<std::int32_t>(t);
    lock.lastReleaseOrdinal = ++releaseCount[t];
    TraceOp op;
    op.type = OpType::Release;
    op.addr = lock.addr;
    push(t, op);
}

TraceSet
TraceRecorder::finish()
{
    panic_if(finished, "finish() called twice");
    finished = true;
    for (unsigned t = 0; t < nThreads; ++t) {
        TraceOp end;
        end.type = OpType::End;
        traces.threads[t].push_back(end);
    }
    return std::move(traces);
}

} // namespace asap
