/**
 * @file
 * Pull-based operation sources.
 *
 * The timing cores used to replay a fully materialized TraceSet — one
 * vector of ops per thread, generated up front. That caps a run's size
 * at whatever fits in host memory. OpSource inverts the coupling: a
 * core *pulls* its next TraceOp when the previous one retires, so a
 * generator can synthesize the stream incrementally in constant
 * memory (src/serve/), while the classic materialized path survives
 * as the trivial MaterializedSource implementation below — every
 * pre-streaming output stays byte-identical.
 *
 * Contract:
 *  - next(t) is called from the simulation host thread only (event
 *    callbacks are serialized per core), and must return synchronously
 *    — a source may never block on another thread's progress, or the
 *    single-threaded event loop deadlocks;
 *  - each thread's stream must be terminated by an End op, after
 *    which the core stops pulling;
 *  - streams must be a pure function of the source's construction
 *    parameters (seed included), never of simulated time — that is
 *    what makes results identical across --jobs.
 */

#ifndef ASAP_CPU_OP_SOURCE_HH
#define ASAP_CPU_OP_SOURCE_HH

#include <cstddef>
#include <utility>

#include "cpu/op.hh"
#include "sim/log.hh"

namespace asap
{

/** Supplies one thread's next replayable operation on demand. */
class OpSource
{
  public:
    virtual ~OpSource() = default;

    /** The next operation of thread @p t (must end with End). */
    virtual TraceOp next(unsigned t) = 0;

    /** Number of per-thread streams this source carries. */
    virtual unsigned numThreads() const = 0;
};

/**
 * The materialized path as an OpSource: wraps a recorded TraceSet and
 * deals it out per-thread. This is byte-for-byte the pre-streaming
 * replay (same ops, same order); the only change is who holds the
 * cursor.
 */
class MaterializedSource : public OpSource
{
  public:
    explicit MaterializedSource(TraceSet traces)
        : traces_(std::move(traces)), cursors_(traces_.threads.size(), 0)
    {
    }

    TraceOp
    next(unsigned t) override
    {
        auto &ops = traces_.threads[t];
        panic_if(cursors_[t] >= ops.size(),
                 "core ", t, " ran off its trace");
        return ops[cursors_[t]++];
    }

    unsigned
    numThreads() const override
    {
        return static_cast<unsigned>(traces_.threads.size());
    }

    const TraceSet &traces() const { return traces_; }

  private:
    TraceSet traces_;
    std::vector<std::size_t> cursors_;
};

} // namespace asap

#endif // ASAP_CPU_OP_SOURCE_HH
