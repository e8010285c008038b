/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a layer of the simulator: its name is
 * "<layer>.<call>" (e.g. "sim.run"), and it records start and end on
 * the steady clock, the span that caused it, the job it belongs to and
 * the worker thread that ran it. Spans stay in memory until the run
 * ends; then selfTimes() derives each layer's self time and
 * writeChromeTrace() dumps them as Chrome trace-event JSON (opens in
 * Perfetto or chrome://tracing).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Sentinel for "no parent" / "no job". */
inline constexpr std::int64_t kNone = -1;

struct Span
{
    std::string name;      //!< "<layer>.<call>"
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = kNone; //!< index of the causing span
    std::int64_t job = kNone;    //!< job index within its batch
    unsigned worker = 0;         //!< 0 = main thread, 1.. = pool workers
    /** Placed from a program counter (e.g. RunResult::hostNs) rather
     *  than timed around a call: the call hides that boundary. */
    bool derived = false;

    std::uint64_t durNs() const { return endNs - startNs; }
    /** Text before the first '.'. */
    std::string layer() const { return name.substr(0, name.find('.')); }
};

/** Thread-safe span store. Indices returned by begin() stay valid. */
class SpanRecorder
{
  public:
    /** Open a span now; @p parent kNone = the calling thread's
     *  innermost open span (if any). */
    std::int64_t begin(std::string name, std::int64_t job,
                       std::int64_t parent = kNone);

    /** Close span @p id now. */
    void end(std::int64_t id);

    /** Record a span whose bounds were measured elsewhere. */
    std::int64_t add(std::string name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::int64_t parent,
                     std::int64_t job, bool derived);

    /** Tag the calling thread's spans with worker number @p w. */
    static void setWorker(unsigned w);
    /** The calling thread's worker number (0 until set). */
    static unsigned worker();

    std::vector<Span> snapshot() const;

  private:
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::int64_t job,
               std::int64_t parent = kNone)
        : rec(rec), id(rec.begin(std::move(name), job, parent))
    {
    }
    ~ScopedSpan() { rec.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t index() const { return id; }

  private:
    SpanRecorder &rec;
    std::int64_t id;
};

/** Self time per layer plus the totals the consistency check needs. */
struct SelfTimes
{
    std::map<std::string, double> layerSelfS; //!< layer -> seconds
    std::map<std::string, double> nameSelfS;  //!< span name -> seconds
    std::map<std::string, std::uint64_t> nameCount;
    double jobSpanS = 0.0;     //!< sum of "exp.job" durations
    double selfInJobsS = 0.0;  //!< sum of self times inside job trees
};

/**
 * Self time of a span = its duration minus the part of its interval
 * covered by its children (the union, so concurrent children of a
 * batch span are not double-subtracted).
 */
SelfTimes selfTimes(const std::vector<Span> &spans);

/** Write @p spans as Chrome trace-event JSON ("X" complete events,
 *  timestamps in microseconds from the earliest span). */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
