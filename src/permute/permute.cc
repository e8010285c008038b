#include "permute/permute.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <unordered_set>

#include "sim/log.hh"
#include "sim/pool.hh"

namespace asap
{
namespace permute
{

namespace
{

/** splitmix64: small, seedable, host-independent mask sampler. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

/** splitmix64 finalizer: host-independent 64-bit mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Zobrist-style term for one (line, value) pair. The image
 * fingerprint is the XOR of one term per effect line, so flipping a
 * single line's value updates it in O(1): xor the old term out, the
 * new term in. Double mixing binds line and value nonlinearly so
 * cross-line value swaps cannot cancel.
 */
std::uint64_t
imageMix(std::uint64_t line, std::uint64_t value)
{
    return mix64(mix64(line + 0x9e3779b97f4a7c15ULL) ^ value);
}

/** Precomputed per-line effect table (see permuteAndCheck). */
struct LineEffect
{
    std::uint64_t line = 0;
    std::uint64_t canonical = 0; //!< post-canonical-crash value
    std::uint64_t durable = 0;   //!< pre-rewind (speculative) value
    bool hasUndo = false;
    /** Atom indices erasing the undo (commit of its epoch at this MC,
     *  or a fault drop); the line reverts to @c durable when any of
     *  these is in the applied set. */
    std::uint64_t undoEraseMask = 0;
    /** (atom bit, value) per delay on this line, in release order. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> delayBits;
};

/** Final value of a line under an applied-atom mask. */
std::uint64_t
finalValue(const LineEffect &e, std::uint64_t mask)
{
    std::uint64_t v =
        e.hasUndo
            ? ((e.undoEraseMask & mask) ? e.durable : e.canonical)
            : e.canonical;
    for (const auto &[bits, value] : e.delayBits)
        if (bits & mask)
            v = value; // release order: last applied delay wins
    return v;
}

/**
 * Build the per-line effect table. Lines are partitioned across
 * controllers by the address map, so (mc, line) pairs never alias a
 * line twice. Order-dependent undo/delay collisions (see the file
 * comment in permute.hh) are counted into @p rep.
 */
std::vector<LineEffect>
buildEffects(const PermuteSnapshot &snap,
             const std::vector<Atom> &atoms, PermuteReport &rep)
{
    const unsigned n = static_cast<unsigned>(atoms.size());

    // Atom lookup: bit mask for "commit(thread, epoch) applied at mc"
    // and "undo on (mc, line) dropped".
    auto commitBits = [&](unsigned mc, std::uint16_t thread,
                          std::uint64_t epoch) {
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < n; ++i) {
            const Atom &a = atoms[i];
            if (a.kind == Atom::Kind::CommitApply && a.mc == mc &&
                a.thread == thread && a.epoch == epoch)
                bits |= 1ULL << i;
        }
        return bits;
    };
    auto dropBits = [&](unsigned mc, std::uint64_t line) {
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < n; ++i) {
            const Atom &a = atoms[i];
            if (a.kind == Atom::Kind::DropUndo && a.mc == mc &&
                a.line == line)
                bits |= 1ULL << i;
        }
        return bits;
    };

    std::vector<LineEffect> effects;
    for (const McSnapshot &m : snap.mcs) {
        std::unordered_map<std::uint64_t, std::size_t> index;
        for (const UndoRecordView &u : m.undos) {
            LineEffect e;
            e.line = u.line;
            e.hasUndo = true;
            e.canonical = u.value; // rewind wrote the safe value
            auto dit = snap.durableAtCrash.find(u.line);
            e.durable =
                dit == snap.durableAtCrash.end() ? u.value : dit->second;
            e.undoEraseMask = commitBits(m.mc, u.thread, u.epoch) |
                              dropBits(m.mc, u.line);
            index[u.line] = effects.size();
            effects.push_back(std::move(e));
        }
        for (const DelayRecordView &d : m.delays) {
            auto iit = index.find(d.line);
            if (iit == index.end()) {
                LineEffect e;
                e.line = d.line;
                auto dit = snap.durableAtCrash.find(d.line);
                // No undo: the canonical crash leaves the durable
                // value (delay records are simply discarded).
                e.durable = dit == snap.durableAtCrash.end()
                                ? 0
                                : dit->second;
                e.canonical = e.durable;
                index[d.line] = effects.size();
                effects.push_back(std::move(e));
                iit = index.find(d.line);
            }
            LineEffect &e = effects[iit->second];
            const std::uint64_t bits =
                commitBits(m.mc, d.thread, d.epoch);
            if (bits != 0)
                e.delayBits.emplace_back(bits, d.value);
            // Defensive: a released delay racing a *different*
            // in-flight epoch's undo on the same line would make the
            // final value order-dependent. Conflict-dependency
            // ordering makes this unreachable; count it loudly.
            if (e.hasUndo && e.undoEraseMask != 0 && bits != 0 &&
                (e.undoEraseMask & bits) == 0)
                ++rep.orderCollisions;
        }
    }
    if (rep.orderCollisions != 0)
        warn("permute: ", rep.orderCollisions,
             " order-dependent undo/delay collisions; final values "
             "follow release-last semantics");
    return effects;
}

/**
 * The set of state masks to check. Exhaustive spaces are enumerated
 * implicitly (the i-th mask is i for the naive engine, grayCode(i)
 * for the incremental one — the same set either way); sampled and
 * single-state plans carry an explicit ascending mask list.
 */
struct MaskPlan
{
    bool exhaustive = false;
    std::uint64_t count = 0;
    std::vector<std::uint64_t> masks; //!< sorted; empty if exhaustive
};

MaskPlan
planMasks(const PermuteOptions &opt, PermuteReport &rep)
{
    MaskPlan plan;
    if (opt.haveOnlyMask) {
        plan.masks.push_back(opt.onlyMask & (rep.statesReachable - 1));
        plan.count = 1;
    } else if (rep.statesReachable <= opt.bound) {
        plan.exhaustive = true;
        plan.count = rep.statesReachable;
    } else {
        rep.truncated = true;
        std::unordered_set<std::uint64_t> chosen;
        auto add = [&](std::uint64_t m) {
            if (chosen.insert(m).second)
                plan.masks.push_back(m);
        };
        // Corners first: canonical and all-applied.
        add(0);
        add(rep.statesReachable - 1);
        std::uint64_t prng = opt.sampleSeed;
        // Cap the draw loop so a tiny space cannot spin; saturate the
        // multiply so a huge --bound cannot wrap it to a small cap.
        const std::uint64_t drawCap =
            opt.bound > ~0ULL / 64 ? ~0ULL : opt.bound * 64;
        std::uint64_t draws = 0;
        while (plan.masks.size() < opt.bound && draws < drawCap) {
            add(splitmix64(prng) & (rep.statesReachable - 1));
            ++draws;
        }
        // Check in ascending mask order so first-bad is the lowest
        // bad mask under every engine and thread count.
        std::sort(plan.masks.begin(), plan.masks.end());
        plan.count = plan.masks.size();
    }
    return plan;
}

// --- naive engine --------------------------------------------------------

/** The original check loop, kept as the benchmark baseline: full
 *  image hash per state, mutate-check-revert plus a one-shot
 *  (re-indexing) checkCrashConsistency per distinct image. */
void
runNaive(const MaskPlan &plan, const std::vector<LineEffect> &effects,
         NvmContents &nvm, const RunLog &log,
         const std::vector<std::uint64_t> &committed_up_to,
         PermuteReport &rep)
{
    std::unordered_map<std::uint64_t, std::pair<bool, std::string>>
        verdictByKey;
    for (std::uint64_t i = 0; i < plan.count; ++i) {
        const std::uint64_t mask =
            plan.exhaustive ? i : plan.masks[i];
        ++rep.statesChecked;

        std::uint64_t key = kFnvOffset;
        for (const LineEffect &e : effects) {
            fnvMix(key, e.line);
            fnvMix(key, finalValue(e, mask));
        }

        auto vit = verdictByKey.find(key);
        bool ok;
        std::string message;
        if (vit != verdictByKey.end()) {
            ok = vit->second.first;
            message = vit->second.second;
        } else {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> saved;
            for (const LineEffect &e : effects) {
                const std::uint64_t want = finalValue(e, mask);
                const std::uint64_t have = nvm.read(e.line);
                if (want != have) {
                    saved.emplace_back(e.line, have);
                    nvm.write(e.line, want);
                }
            }
            const CheckResult cr =
                checkCrashConsistency(log, nvm, committed_up_to);
            for (const auto &[line, value] : saved)
                nvm.write(line, value);
            ok = cr.ok;
            message = cr.message;
            verdictByKey.emplace(key, std::make_pair(ok, message));
        }

        if (!ok) {
            ++rep.inconsistentStates;
            if (!rep.haveFirstBad) {
                rep.haveFirstBad = true;
                rep.firstBadMask = mask;
                rep.firstBadMessage = message;
            }
        }
    }
    rep.distinctStates = verdictByKey.size();
}

// --- incremental engine --------------------------------------------------

/**
 * Insert-only open-addressing map: image fingerprint -> slot index.
 * The state loop does one lookup per state, so this sits on the
 * hottest path in the engine; a linear-probed flat table beats
 * unordered_map by avoiding per-node allocation and pointer chasing.
 */
class FpMemo
{
  public:
    FpMemo() { rehash(kInitialCap); }

    /** Slot of @p fp, or -1 when absent. */
    std::int64_t
    find(std::uint64_t fp) const
    {
        std::size_t i = mix64(fp) & mask;
        while (vals[i] >= 0) {
            if (keys[i] == fp)
                return vals[i];
            i = (i + 1) & mask;
        }
        return -1;
    }

    /** Insert an absent fingerprint (find() returned -1). */
    void
    insert(std::uint64_t fp, std::int32_t slot)
    {
        if ((size + 1) * 4 > keys.size() * 3)
            grow();
        std::size_t i = mix64(fp) & mask;
        while (vals[i] >= 0)
            i = (i + 1) & mask;
        keys[i] = fp;
        vals[i] = slot;
        ++size;
    }

  private:
    static constexpr std::size_t kInitialCap = 1024;

    void
    rehash(std::size_t cap)
    {
        keys.assign(cap, 0);
        vals.assign(cap, -1);
        mask = cap - 1;
    }

    void
    grow()
    {
        std::vector<std::uint64_t> oldKeys = std::move(keys);
        std::vector<std::int32_t> oldVals = std::move(vals);
        rehash(oldKeys.size() * 2);
        for (std::size_t i = 0; i < oldKeys.size(); ++i) {
            if (oldVals[i] < 0)
                continue;
            std::size_t j = mix64(oldKeys[i]) & mask;
            while (vals[j] >= 0)
                j = (j + 1) & mask;
            keys[j] = oldKeys[i];
            vals[j] = oldVals[i];
        }
    }

    std::vector<std::uint64_t> keys;
    std::vector<std::int32_t> vals; //!< -1 = empty
    std::size_t mask = 0;
    std::size_t size = 0;
};

/** One contiguous chunk of the plan, checked independently. */
struct SegmentResult
{
    std::uint64_t checked = 0;
    std::uint64_t bad = 0;
    bool haveBad = false;
    std::uint64_t minBadMask = 0;
    std::string minBadMessage;
    /** Distinct image fingerprints, in first-seen order, with their
     *  verdicts (parallel vectors; memo maps fp -> index). */
    std::vector<std::uint64_t> fps;
    std::vector<std::pair<bool, std::string>> verdicts;
    FpMemo memo;
};

/**
 * Check plan indices [lo, hi). The walk materializes the first
 * state's line values, overlay and fingerprint in O(effects), then
 * advances state-to-state touching only the effects of the flipped
 * atoms (one atom per step in Gray order; a handful for sampled
 * plans) — the inverted index maps atom bit -> effect indices.
 */
void
runSegment(const MaskPlan &plan, std::uint64_t lo, std::uint64_t hi,
           const std::vector<LineEffect> &effects,
           const std::vector<std::vector<std::uint32_t>> &inv,
           const CheckerIndex &index, const CheckScope &scope,
           const NvmContents &nvm,
           const std::vector<std::uint64_t> &committed_up_to,
           SegmentResult &out)
{
    auto maskAt = [&](std::uint64_t i) {
        return plan.exhaustive ? grayCode(i) : plan.masks[i];
    };

    const std::size_t ne = effects.size();
    std::vector<std::uint64_t> cur(ne);
    std::unordered_map<std::uint64_t, std::uint64_t> overlay;
    overlay.reserve(ne);
    std::uint64_t fp = 0;

    std::uint64_t mask = maskAt(lo);
    for (std::size_t i = 0; i < ne; ++i) {
        cur[i] = finalValue(effects[i], mask);
        overlay[effects[i].line] = cur[i];
        fp ^= imageMix(effects[i].line, cur[i]);
    }
    const NvmView view(nvm, overlay);

    // Scratch for deduplicating touched effects across a multi-bit
    // delta (sampled plans); single-bit Gray steps skip it.
    std::vector<std::uint32_t> stamp(ne, 0);
    std::uint32_t curStamp = 0;
    std::vector<std::uint32_t> touched;

    CheckScope::Scratch scopeScratch;
    auto evaluate = [&](std::uint64_t m) {
        ++out.checked;
        std::int64_t slot = out.memo.find(fp);
        if (slot < 0) {
            // Distinct-image miss. The scope proves most consistent
            // states in O(effects); anything it cannot prove (or any
            // failure, for the canonical message) goes to the full
            // check — the overlay is only read there, so patch it to
            // match cur[] on that path alone.
            bool ok = scope.usable() &&
                      scope.consistent(cur, scopeScratch);
            std::string message;
            if (!ok) {
                for (std::size_t i = 0; i < ne; ++i)
                    overlay[effects[i].line] = cur[i];
                const CheckResult cr =
                    index.check(view, committed_up_to);
                ok = cr.ok;
                message = cr.message;
            }
            slot = static_cast<std::int64_t>(out.fps.size());
            out.fps.push_back(fp);
            out.verdicts.emplace_back(ok, std::move(message));
            out.memo.insert(fp, static_cast<std::int32_t>(slot));
        }
        const std::pair<bool, std::string> &verdict =
            out.verdicts[static_cast<std::size_t>(slot)];
        if (!verdict.first) {
            ++out.bad;
            if (!out.haveBad || m < out.minBadMask) {
                out.haveBad = true;
                out.minBadMask = m;
                out.minBadMessage = verdict.second;
            }
        }
    };

    auto applyEffect = [&](std::uint32_t ei, std::uint64_t m) {
        const std::uint64_t v = finalValue(effects[ei], m);
        if (v != cur[ei]) {
            const std::uint64_t line = effects[ei].line;
            fp ^= imageMix(line, cur[ei]) ^ imageMix(line, v);
            cur[ei] = v;
        }
    };

    evaluate(mask);
    for (std::uint64_t idx = lo + 1; idx < hi; ++idx) {
        const std::uint64_t next = maskAt(idx);
        std::uint64_t delta = mask ^ next;
        if (std::has_single_bit(delta)) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(delta));
            for (std::uint32_t ei : inv[b])
                applyEffect(ei, next);
        } else {
            ++curStamp;
            touched.clear();
            while (delta) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(delta));
                delta &= delta - 1;
                for (std::uint32_t ei : inv[b]) {
                    if (stamp[ei] != curStamp) {
                        stamp[ei] = curStamp;
                        touched.push_back(ei);
                    }
                }
            }
            for (std::uint32_t ei : touched)
                applyEffect(ei, next);
        }
        mask = next;
        evaluate(mask);
    }
}

void
runIncremental(const MaskPlan &plan,
               const std::vector<LineEffect> &effects, unsigned threads,
               const NvmContents &nvm, const RunLog &log,
               const std::vector<std::uint64_t> &committed_up_to,
               PermuteReport &rep)
{
    // Inverted index: atom bit -> effects whose value that bit can
    // change (the bit erases the line's undo or releases a delay).
    const unsigned n = rep.atoms;
    std::vector<std::vector<std::uint32_t>> inv(n);
    for (std::size_t i = 0; i < effects.size(); ++i) {
        std::uint64_t affect = effects[i].undoEraseMask;
        for (const auto &[bits, value] : effects[i].delayBits) {
            (void)value;
            affect |= bits;
        }
        affect &= n >= 64 ? ~0ULL : (1ULL << n) - 1;
        while (affect) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(affect));
            affect &= affect - 1;
            inv[b].push_back(static_cast<std::uint32_t>(i));
        }
    }

    // Index the run log once; every state check shares it (and any
    // crash job probing the same tick shares the memoised build).
    const std::shared_ptr<const CheckerIndex> index =
        sharedCheckerIndex(log);

    // Delta-check scope: resolves everything the checker derives from
    // lines outside the effect table once, so each distinct image
    // costs O(effects) instead of a full log-sized check pass.
    std::vector<std::uint64_t> varLines;
    varLines.reserve(effects.size());
    for (const LineEffect &e : effects)
        varLines.push_back(e.line);
    const CheckScope scope(index, nvm, committed_up_to, varLines);

    unsigned T = threads == 0 ? ThreadPool::defaultThreads() : threads;
    if (static_cast<std::uint64_t>(T) > plan.count)
        T = static_cast<unsigned>(plan.count);
    if (T == 0)
        T = 1;

    std::vector<SegmentResult> segs(T);
    if (T == 1) {
        runSegment(plan, 0, plan.count, effects, inv, *index, scope, nvm,
                   committed_up_to, segs[0]);
    } else {
        ThreadPool pool(T);
        const std::uint64_t base = plan.count / T;
        const std::uint64_t rem = plan.count % T;
        std::uint64_t lo = 0;
        for (unsigned t = 0; t < T; ++t) {
            const std::uint64_t hi = lo + base + (t < rem ? 1 : 0);
            SegmentResult *out = &segs[t];
            pool.submit([&plan, lo, hi, &effects, &inv, &index, &scope, &nvm,
                         &committed_up_to, out]() {
                runSegment(plan, lo, hi, effects, inv, *index, scope, nvm,
                           committed_up_to, *out);
            });
            lo = hi;
        }
        pool.wait();
    }

    // Deterministic merge: counts sum, distinct fingerprints union,
    // first-bad is the lowest bad mask (ties impossible — segments
    // partition the mask set).
    std::unordered_set<std::uint64_t> distinct;
    bool haveBad = false;
    std::uint64_t minBad = 0;
    const std::string *minBadMessage = nullptr;
    for (const SegmentResult &s : segs) {
        rep.statesChecked += s.checked;
        rep.inconsistentStates += s.bad;
        for (std::uint64_t key : s.fps)
            distinct.insert(key);
        if (s.haveBad && (!haveBad || s.minBadMask < minBad)) {
            haveBad = true;
            minBad = s.minBadMask;
            minBadMessage = &s.minBadMessage;
        }
    }
    rep.distinctStates = distinct.size();
    if (haveBad) {
        rep.haveFirstBad = true;
        rep.firstBadMask = minBad;
        rep.firstBadMessage = *minBadMessage;
    }
}

} // namespace

bool
parsePermuteFault(const std::string &name, FaultMode &out)
{
    if (name.empty() || name == "none") {
        out = FaultMode::None;
        return true;
    }
    if (name == "drop-undo") {
        out = FaultMode::DropUndo;
        return true;
    }
    return false;
}

const char *
toString(FaultMode mode)
{
    return mode == FaultMode::DropUndo ? "drop-undo" : "none";
}

const char *
permuteFaultNames()
{
    return "none, drop-undo";
}

bool
parsePermuteEngine(const std::string &name, Engine &out)
{
    if (name.empty() || name == "incremental") {
        out = Engine::Incremental;
        return true;
    }
    if (name == "naive") {
        out = Engine::Naive;
        return true;
    }
    return false;
}

const char *
toString(Engine engine)
{
    return engine == Engine::Naive ? "naive" : "incremental";
}

const char *
permuteEngineNames()
{
    return "naive, incremental";
}

std::vector<Atom>
deriveAtoms(const PermuteSnapshot &snap, FaultMode fault)
{
    std::vector<Atom> atoms;

    // One CommitApply atom per (controller, in-flight epoch) pair
    // with at least one record to act on.
    for (const McSnapshot &m : snap.mcs) {
        for (const auto &[thread, epoch] : snap.inFlight) {
            bool has = false;
            for (const UndoRecordView &u : m.undos) {
                if (u.thread == thread && u.epoch == epoch) {
                    has = true;
                    break;
                }
            }
            if (!has) {
                for (const DelayRecordView &d : m.delays) {
                    if (d.thread == thread && d.epoch == epoch) {
                        has = true;
                        break;
                    }
                }
            }
            if (has)
                atoms.push_back({Atom::Kind::CommitApply, m.mc, thread,
                                 epoch, 0});
        }
    }

    if (fault == FaultMode::DropUndo) {
        for (const McSnapshot &m : snap.mcs)
            for (const UndoRecordView &u : m.undos)
                atoms.push_back({Atom::Kind::DropUndo, m.mc, u.thread,
                                 u.epoch, u.line});
    }

    // Canonical bit order: stable across runs and hosts.
    std::sort(atoms.begin(), atoms.end(),
              [](const Atom &a, const Atom &b) {
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.mc != b.mc)
                      return a.mc < b.mc;
                  if (a.thread != b.thread)
                      return a.thread < b.thread;
                  if (a.epoch != b.epoch)
                      return a.epoch < b.epoch;
                  return a.line < b.line;
              });
    return atoms;
}

PermuteReport
permuteAndCheck(const PermuteSnapshot &snap, const PermuteOptions &opt,
                NvmContents &nvm, const RunLog &log,
                const std::vector<std::uint64_t> &committed_up_to)
{
    PermuteReport rep;

    std::vector<Atom> atoms = deriveAtoms(snap, opt.fault);
    if (atoms.size() > kMaxAtoms) {
        warn("permute: ", atoms.size(), " atoms exceed the ", kMaxAtoms,
             "-bit mask; dropping the tail (coverage will be partial)");
        atoms.resize(kMaxAtoms);
        rep.atomsTruncated = true;
    }
    const unsigned n = static_cast<unsigned>(atoms.size());
    rep.atoms = n;
    rep.statesReachable = 1ULL << n;

    const std::vector<LineEffect> effects =
        buildEffects(snap, atoms, rep);
    const MaskPlan plan = planMasks(opt, rep);

    if (opt.engine == Engine::Naive)
        runNaive(plan, effects, nvm, log, committed_up_to, rep);
    else
        runIncremental(plan, effects, opt.threads, nvm, log,
                       committed_up_to, rep);
    return rep;
}

std::string
maskToHex(std::uint64_t mask)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(mask));
    return buf;
}

bool
maskFromHex(const std::string &hex, std::uint64_t &out)
{
    if (hex.empty() || hex.size() > 16)
        return false;
    std::uint64_t v = 0;
    for (char c : hex) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            v |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            return false;
    }
    out = v;
    return true;
}

} // namespace permute
} // namespace asap
