/**
 * @file
 * Trace operation format.
 *
 * Workloads execute functionally at trace-generation time and record
 * one TraceOp stream per thread. The timing cores replay the streams;
 * cross-thread synchronisation is expressed as acquire edges that
 * reference a release ordinal on another thread, so lock handoff
 * happens in simulated time.
 */

#ifndef ASAP_CPU_OP_HH
#define ASAP_CPU_OP_HH

#include <cstdint>
#include <vector>

namespace asap
{

/** Kinds of replayable operations. */
enum class OpType : std::uint8_t
{
    Load,       //!< read of a line (PM or volatile)
    Store,      //!< write of a line (PM stores enter the persist path)
    Compute,    //!< CPU-only work: consumes cycles
    OFence,     //!< intra-thread ordering barrier
    DFence,     //!< durability barrier
    Acquire,    //!< lock acquire (may carry a cross-thread sync edge)
    Release,    //!< lock release (publishes a sync point)
    End,        //!< end of the thread's trace
};

/** One replayable operation. */
struct TraceOp
{
    OpType type = OpType::End;
    bool isPm = false;          //!< address maps to persistent memory
    std::uint32_t cycles = 0;   //!< Compute duration
    std::uint64_t addr = 0;     //!< byte address (memory ops, locks)
    std::uint64_t value = 0;    //!< unique token (PM stores)
    std::int32_t srcThread = -1; //!< Acquire: releasing thread
    std::uint64_t srcRelease = 0; //!< Acquire: release ordinal (1-based)

    bool operator==(const TraceOp &) const = default;
};

/** Whole-program trace: one op stream per thread. */
struct TraceSet
{
    std::vector<std::vector<TraceOp>> threads;

    explicit TraceSet(unsigned num_threads = 0) : threads(num_threads) {}

    /** Total operations across all threads. */
    std::size_t
    totalOps() const
    {
        std::size_t n = 0;
        for (const auto &t : threads)
            n += t.size();
        return n;
    }
};

} // namespace asap

#endif // ASAP_CPU_OP_HH
