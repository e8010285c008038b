/**
 * @file
 * Crash-recovery consistency checker.
 *
 * The executable counterpart of Section VI's proofs. After a crash is
 * injected and the ADR domain drained, the checker rebuilds the epoch
 * dependency DAG from the run log (intra-thread order + cross-thread
 * edges) and verifies, against the surviving NVM contents:
 *
 *  1. *Prefix closure* (Theorem 2 / epoch ordering): for every line,
 *     the surviving value's epoch may only be preceded — in the DAG —
 *     by epochs whose own writes are fully visible. No write of a
 *     later epoch survives while an earlier epoch's write was lost.
 *  2. *Committed durability* (Lemma 1.1): every epoch the hardware
 *     reported committed is fully durable.
 *  3. *No alien values*: every surviving line value is either the
 *     initial value or a token some recorded store actually wrote to
 *     that line.
 *
 * The log-derived part of the check (per-line write lists, the
 * store-token index, the epoch dependency graph) depends only on the
 * RunLog, not on the NVM state under test. CheckerIndex captures it as
 * a build-once structure on dense ids, so callers checking many states
 * against one log — the crash-state permuter above all — index once
 * and pay only the per-state phase per check. checkCrashConsistency
 * stays as the one-shot wrapper.
 *
 * Message order. The verdict (ok or not) is a predicate over the
 * state and does not depend on traversal order; the witness a failing
 * verdict's message names does, and follows a fixed order: an alien
 * value names the lowest-addressed alien line; a prefix-closure
 * violation names the lowest-addressed surviving line whose epoch has
 * a non-durable ancestor; a committed-durability violation names the
 * first committed epoch in (thread, ts) order; and an epoch that lost
 * several writes names the lowest-addressed line among them. Which
 * ancestor a prefix-closure message names follows the ancestor walk:
 * LIFO over (same-thread predecessor, then cross-thread parents in log
 * order), one visited set per check, surviving lines in ascending
 * address order before committed epochs.
 */

#ifndef ASAP_RECOVERY_CHECKER_HH
#define ASAP_RECOVERY_CHECKER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/nvm_contents.hh"
#include "recovery/run_log.hh"
#include "sim/flat_map.hh"

namespace asap
{

/** Verdict of a consistency check. */
struct CheckResult
{
    bool ok = true;
    std::string message; //!< first violation found (empty when ok)

    explicit operator bool() const { return ok; }
};

/**
 * A read-only view of post-crash NVM contents: the surviving media
 * state, optionally shadowed by a sparse overlay. The permuter checks
 * each enumerated state through an overlay holding only the lines a
 * record can change, instead of mutating (and reverting) the shared
 * NvmContents — which also makes concurrent checks safe: NvmContents
 * reads are const and each worker owns its overlay.
 */
class NvmView
{
  public:
    using Overlay = FlatMap<std::uint64_t>;

    explicit NvmView(const NvmContents &base) : base_(&base) {}
    NvmView(const NvmContents &base, const Overlay &overlay)
        : base_(&base), overlay_(&overlay)
    {
    }

    /** Overlay value when present, else the underlying media value. */
    std::uint64_t
    read(std::uint64_t line) const
    {
        if (overlay_) {
            if (const std::uint64_t *v = overlay_->find(line))
                return *v;
        }
        return base_->read(line);
    }

  private:
    const NvmContents *base_;
    const Overlay *overlay_ = nullptr;
};

/**
 * Build-once index of a RunLog for repeated consistency checks.
 *
 * Construction numbers everything once: epochs in (thread, ts) order,
 * so an epoch's same-thread predecessor is the id before it; logged
 * lines in ascending address order. Each line's writes (in retirement
 * order), each epoch's last write per line and each epoch's
 * cross-thread parents (in log order) are CSR arrays over those ids,
 * store tokens map to write positions in a FlatMap, and one
 * topological order of the dependency graph is kept (or a cycle
 * flag). check() then runs only the state-shaped part — surviving-
 * write resolution and the prefix-closure / committed-durability
 * walks — against any NvmView. check() is const and allocates only
 * per-call scratch, so one index may serve many threads concurrently.
 */
class CheckerIndex
{
  public:
    explicit CheckerIndex(const RunLog &log);

    /** Check one post-crash state against the indexed log. */
    CheckResult
    check(const NvmView &view,
          const std::vector<std::uint64_t> &committed_up_to) const;

  private:
    /** An epoch's last write to one line. */
    struct LastWrite
    {
        std::uint32_t line; //!< line id
        std::uint32_t idx;  //!< index into that line's write list
    };

    std::size_t numEpochs() const { return epochTs.size(); }
    std::size_t numLines() const { return lineAddr.size(); }

    /** True when epoch @p e - 1 runs on @p e's thread (its
     *  same-thread predecessor). */
    bool
    hasPred(std::uint32_t e) const
    {
        return e > 0 && epochThread[e - 1] == epochThread[e];
    }

    /** True when epoch @p e is at or below its thread's committed
     *  frontier (threads past the frontier vector commit nothing). */
    bool
    committed(std::uint32_t e,
              const std::vector<std::uint64_t> &committed_up_to) const
    {
        const std::uint16_t t = epochThread[e];
        return t < committed_up_to.size() &&
               epochTs[e] <= committed_up_to[t];
    }

    /** Id of logged line @p addr, or -1. */
    std::int64_t lineId(std::uint64_t addr) const;

    /** survivingIdx() of a value no store wrote to the line. */
    static constexpr std::int64_t kAlien = -2;

    /** Index within line @p l's writes of the write that stored
     *  @p value there; -1 for the initial value 0, kAlien for a value
     *  no store wrote to that line. */
    std::int64_t survivingIdx(std::uint32_t l, std::uint64_t value) const;

    /** Per epoch id, ascending (thread, ts). */
    std::vector<std::uint16_t> epochThread;
    std::vector<std::uint64_t> epochTs;
    /** CSR: epoch -> last write per line, ascending line id. */
    std::vector<std::uint32_t> lastBegin;
    std::vector<LastWrite> lastWrites;
    /** CSR: epoch -> direct cross-thread parents, in log order. */
    std::vector<std::uint32_t> parentBegin;
    std::vector<std::uint32_t> parents;
    /** Per line id, ascending address. */
    std::vector<std::uint64_t> lineAddr;
    /** CSR: line -> writes in retirement order; each entry is the
     *  writing epoch's id. */
    std::vector<std::uint32_t> writeBegin;
    std::vector<std::uint32_t> writeEpoch;
    /** Store token -> write position (index into writeEpoch). */
    FlatMap<std::uint32_t> tokens;
    /** Every epoch id, parents before children; empty on a cycle. */
    std::vector<std::uint32_t> topo;
    /** Log defect found at build time (a duplicate or reserved store
     *  token); every check() fails with it. */
    bool buildOk = true;
    std::string buildMessage;

    friend class CheckScope;
};

/**
 * Delta-check oracle for many states that differ from one base image
 * only on a known set of *variable lines* (the permuter's effect
 * table). Everything the checker derives from fixed lines is constant
 * across those states, so construction resolves it once, on the
 * index's ids, parents and topological order:
 *
 *  - base surviving-write indices and alien detection for every fixed
 *    line (a fixed-line violation fails every state: constant fail);
 *  - visibility of every epoch that writes no variable line;
 *  - per epoch, via one pass over the topological order, whether a
 *    non-visible fixed epoch is a strict ancestor (constant fail when
 *    a committed epoch or fixed surviving value depends on one) and
 *    the bitmask of *variable* epochs — those writing at least one
 *    variable line — among its strict ancestors.
 *
 * consistent() then answers the boolean verdict in O(variable lines +
 * variable epochs): resolve the surviving index of each variable
 * line, evaluate only the variable epochs' visibility, and test the
 * precomputed ancestor masks. `true` is exact (the full check would
 * pass); `false` means "not fast-provable" — callers re-run
 * CheckerIndex::check() for the authoritative verdict and canonical
 * message, so the fallback path can never diverge from the checker.
 *
 * The scope bails (usable() == false) on structures it cannot encode:
 * more than 64 variable epochs, duplicate variable lines, or a cycle
 * in the dependency graph.
 */
class CheckScope
{
  public:
    /** Per-calling-thread scratch for consistent(). */
    struct Scratch
    {
        std::vector<std::int64_t> surv;
    };

    CheckScope(std::shared_ptr<const CheckerIndex> index,
               const NvmContents &base,
               const std::vector<std::uint64_t> &committed_up_to,
               const std::vector<std::uint64_t> &variable_lines);

    /** False when construction bailed; consistent() must not be
     *  called and every state needs the full check. */
    bool usable() const { return usable_; }

    /**
     * Exact fast verdict for one state. @p values holds the current
     * value of each variable line, aligned with the constructor's
     * variable_lines. Returns true iff the full check would pass.
     */
    bool consistent(const std::vector<std::uint64_t> &values,
                    Scratch &scratch) const;

  private:
    /** A variable epoch's last write to a variable line. */
    struct Need
    {
        std::uint32_t slot; //!< variable-line slot
        std::uint32_t idx;  //!< required surviving index
    };

    /** Ancestor facts of one potential surviving-value epoch. */
    struct SeedInfo
    {
        bool ancBadFixed = false;   //!< strict ancestor: bad fixed epoch
        std::uint64_t varAncMask = 0; //!< strict ancestors in var epochs
    };

    /** Line id of a variable line the log never wrote (the checker
     *  never reads it). */
    static constexpr std::uint32_t kUnlogged = ~std::uint32_t{0};

    std::shared_ptr<const CheckerIndex> index_;
    bool usable_ = false;
    /** Some fixed-line/epoch violation holds in every state. */
    bool constantFail_ = false;
    /** Per slot: line id (or kUnlogged) and the start of its seed
     *  table in seeds_ (one entry per write of the line). */
    std::vector<std::uint32_t> slotLine_;
    std::vector<std::uint32_t> slotSeed_;
    std::vector<SeedInfo> seeds_;
    /** CSR: variable epoch (bit) -> its writes to variable lines. */
    std::vector<std::uint32_t> needBegin_;
    std::vector<Need> needs_;
    /** Variable epochs with a fixed line that already lost a write on
     *  the base image: invisible in every state. */
    std::uint64_t neverVisible_ = 0;
    /** Variable epochs that must be visible in every consistent
     *  state: committed themselves, or a strict ancestor of a
     *  committed epoch or of a fixed surviving value's epoch. */
    std::uint64_t staticBadMask_ = 0;
};

/**
 * Verify post-crash NVM contents against the run log (one-shot: index
 * the log, run one check).
 *
 * @param log stores and dependency edges recorded during the run
 * @param nvm surviving media contents (post ADR drain + undo rewind)
 * @param committed_up_to per-thread newest epoch the hardware had
 *        committed at the crash (from System::committedUpTo())
 */
CheckResult checkCrashConsistency(
    const RunLog &log, const NvmContents &nvm,
    const std::vector<std::uint64_t> &committed_up_to);

/**
 * Process-wide CheckerIndex memo, keyed by the log *contents* (a
 * 128-bit content hash), so every caller holding an identical log —
 * a Crash job and a Permute job probing the same tick, a campaign
 * verdict repeated after its probe — shares one build. Self-keying by
 * content means no configuration rendering can drift out of sync with
 * what actually shapes the log. Entries are capped (oldest evicted);
 * the shared_ptr keeps an evicted index alive for holders.
 */
std::shared_ptr<const CheckerIndex>
sharedCheckerIndex(const RunLog &log);

/** Hit/build counters of the shared-index memo. */
struct CheckerIndexStats
{
    std::uint64_t builds = 0; //!< indexes built (memo misses)
    std::uint64_t hits = 0;   //!< checks served an existing index
};

/** Snapshot of the process-wide shared-index counters. */
CheckerIndexStats checkerIndexStats();

/** Drop memoised indexes and zero the counters (tests). */
void clearCheckerIndexCache();

} // namespace asap

#endif // ASAP_RECOVERY_CHECKER_HH
