/**
 * @file
 * Trace recorder: the bridge from workload code to replayable traces.
 *
 * Workloads run functionally (single host thread, cooperatively
 * interleaved per logical thread) against a PmSpace; every PM access,
 * fence and lock operation is recorded into per-thread TraceOp
 * streams. Lock release/acquire pairs become cross-thread sync edges
 * the replay cores honour in simulated time. PM store tokens are
 * globally unique so the recovery checker can identify surviving
 * writes exactly.
 */

#ifndef ASAP_PM_RECORDER_HH
#define ASAP_PM_RECORDER_HH

#include <cstdint>
#include <vector>

#include "cpu/op.hh"
#include "mem/packets.hh"
#include "pm/pm_space.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace asap
{

/** A lock known to the recorder (functional at generation time). */
struct PmLock
{
    std::uint64_t addr = 0;        //!< volatile lock-word address
    std::int32_t lastReleaser = -1;
    std::uint64_t lastReleaseOrdinal = 0;
    std::int32_t holder = -1;      //!< generation-time sanity check
};

/** Records per-thread operation streams while workloads execute. */
class TraceRecorder
{
  public:
    /**
     * The recorder's PmSpace reserves 64 MB of simulated PM addresses;
     * resident memory is only the pages the workload touches.
     *
     * @param num_threads logical threads to record
     * @param seed deterministic seed for value/key streams
     */
    TraceRecorder(unsigned num_threads, std::uint64_t seed);

    PmSpace &space() { return pm; }
    Rng &rng() { return rng_; }
    unsigned numThreads() const { return nThreads; }

    /** Create a lock (volatile word). */
    PmLock makeLock();

    // --- per-thread recording API ---------------------------------------

    /** 64-bit PM load: functional read + Load op. */
    std::uint64_t load64(unsigned t, std::uint64_t addr);

    /** 64-bit PM store: functional write + Store op (unique token). */
    void store64(unsigned t, std::uint64_t addr, std::uint64_t value);

    /**
     * Persistent memcpy: records one Store op per touched line.
     * Passing nullptr zero-fills.
     */
    void storeBytes(unsigned t, std::uint64_t addr, const void *src,
                    std::size_t n);

    /** Persistent read of a byte range (Load op per line). */
    void loadBytes(unsigned t, std::uint64_t addr, void *dst,
                   std::size_t n);

    /** Volatile load/store (never enters the persist path). */
    std::uint64_t vload64(unsigned t, std::uint64_t addr);
    void vstore64(unsigned t, std::uint64_t addr, std::uint64_t value);

    /** CPU-only work. */
    void compute(unsigned t, std::uint32_t cycles);

    /** Persist barriers. */
    void ofence(unsigned t);
    void dfence(unsigned t);

    /** Lock operations (record sync edges). */
    void lockAcquire(unsigned t, PmLock &lock);
    void lockRelease(unsigned t, PmLock &lock);

    /** Finish recording: appends End ops and returns the trace set. */
    TraceSet finish();

    /** Ops recorded so far on thread @p t. */
    std::size_t opsRecorded(unsigned t) const
    {
        return traces.threads[t].size();
    }

    /**
     * Guardrail: largest total op count a recorder may materialize
     * before failing loudly (0 = unlimited). Defaults to 32 M ops
     * (~1.3 GB of TraceOps) and is overridable via the
     * ASAP_MAX_TRACE_OPS environment variable. Runs that need more
     * should use the streaming path (src/serve/, serve_bench) which
     * generates ops in constant memory.
     */
    static std::uint64_t traceOpCap();
    static void setTraceOpCap(std::uint64_t cap);

  private:
    void push(unsigned t, TraceOp op);
    std::uint64_t nextToken(unsigned t);

    unsigned nThreads;
    PmSpace pm;
    Rng rng_;
    TraceSet traces;
    std::vector<std::uint64_t> releaseCount;
    std::uint64_t tokenSeq = 1;
    std::uint64_t totalOps = 0;
    bool finished = false;
};

} // namespace asap

#endif // ASAP_PM_RECORDER_HH
