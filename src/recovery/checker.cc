#include "recovery/checker.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "sim/log.hh"

namespace asap
{

namespace
{

/** Turn per-id counts in c[1..n] into CSR row starts in place. */
void
prefixSum(std::vector<std::uint32_t> &c)
{
    for (std::size_t i = 1; i < c.size(); ++i)
        c[i] += c[i - 1];
}

} // namespace

CheckerIndex::CheckerIndex(const RunLog &log)
{
    const std::vector<RunLog::StoreRecord> &stores = log.allStores();
    const std::vector<RunLog::DepEdge> &edges = log.allEdges();
    panic_if(stores.size() >= std::numeric_limits<std::uint32_t>::max(),
             "run log too large for the checker's 32-bit ids");

    // --- epoch ids: every epoch that wrote or appears in an edge, in
    // (thread, ts) order. A thread's stores mostly repeat its current
    // epoch, so a per-thread memo of the last one skips the repeats
    // (and, below, the id lookups).
    struct Memo
    {
        bool valid = false;
        std::uint64_t ts = 0;
        std::uint32_t id = 0;
    };
    std::vector<Memo> memo;
    using Key = std::pair<std::uint16_t, std::uint64_t>;
    std::vector<Key> keys;
    for (const RunLog::StoreRecord &s : stores) {
        if (s.thread >= memo.size())
            memo.resize(s.thread + 1u);
        Memo &m = memo[s.thread];
        if (m.valid && m.ts == s.epoch)
            continue;
        m = {true, s.epoch, 0};
        keys.emplace_back(s.thread, s.epoch);
    }
    for (const RunLog::DepEdge &e : edges) {
        keys.emplace_back(e.thread, e.epoch);
        keys.emplace_back(e.srcThread, e.srcEpoch);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const std::size_t ne = keys.size();
    epochThread.resize(ne);
    epochTs.resize(ne);
    for (std::size_t e = 0; e < ne; ++e) {
        epochThread[e] = keys[e].first;
        epochTs[e] = keys[e].second;
    }
    auto epochOf = [&keys](std::uint16_t t, std::uint64_t ts) {
        return static_cast<std::uint32_t>(
            std::lower_bound(keys.begin(), keys.end(), Key{t, ts}) -
            keys.begin());
    };

    // --- line ids in ascending address order, and each line's write
    // count (the map holds the count, then the id).
    FlatMap<std::uint32_t> lineIds;
    for (const RunLog::StoreRecord &s : stores)
        ++lineIds[s.line];
    lineAddr.reserve(lineIds.size());
    lineIds.forEach([this](std::uint64_t line, std::uint32_t) {
        lineAddr.push_back(line);
    });
    std::sort(lineAddr.begin(), lineAddr.end());
    const std::size_t nl = lineAddr.size();
    writeBegin.assign(nl + 1, 0);
    for (std::uint32_t l = 0; l < nl; ++l) {
        std::uint32_t &v = *lineIds.find(lineAddr[l]);
        writeBegin[l + 1] = writeBegin[l] + v;
        v = l;
    }

    // --- per-line write lists. RunLog numbers stores in append order,
    // so log order is retirement (seq) order within every line. The
    // first store (in log order) repeating an earlier token, or
    // storing the token ~0 that FlatMap reserves, is a log defect.
    auto defect = [this](const char *what, std::uint64_t token) {
        if (!buildOk)
            return;
        std::ostringstream os;
        os << what << ' ' << token;
        buildOk = false;
        buildMessage = os.str();
    };
    writeEpoch.resize(stores.size());
    tokens.reserve(stores.size());
    for (Memo &m : memo)
        m.valid = false;
    std::vector<std::uint32_t> cursor(writeBegin.begin(),
                                      writeBegin.end() - 1);
    for (const RunLog::StoreRecord &s : stores) {
        Memo &m = memo[s.thread];
        if (!m.valid || m.ts != s.epoch)
            m = {true, s.epoch, epochOf(s.thread, s.epoch)};
        const std::uint32_t w = cursor[*lineIds.find(s.line)]++;
        writeEpoch[w] = m.id;
        if (s.value == FlatMap<std::uint32_t>::kEmptyKey)
            defect("reserved store token", s.value);
        else if (tokens.find(s.value))
            defect("duplicate store token", s.value);
        else
            tokens[s.value] = w;
    }

    // --- per epoch, its last write to each line it wrote (lines come
    // in ascending id order, so each row is sorted by line).
    std::vector<std::uint32_t> seenLine(ne, ~std::uint32_t{0});
    lastBegin.assign(ne + 1, 0);
    for (std::uint32_t l = 0; l < nl; ++l) {
        for (std::uint32_t w = writeBegin[l]; w < writeBegin[l + 1]; ++w) {
            const std::uint32_t e = writeEpoch[w];
            if (seenLine[e] != l) {
                seenLine[e] = l;
                ++lastBegin[e + 1];
            }
        }
    }
    prefixSum(lastBegin);
    lastWrites.resize(lastBegin[ne]);
    cursor.assign(lastBegin.begin(), lastBegin.end() - 1);
    std::fill(seenLine.begin(), seenLine.end(), ~std::uint32_t{0});
    for (std::uint32_t l = 0; l < nl; ++l) {
        for (std::uint32_t w = writeBegin[l]; w < writeBegin[l + 1]; ++w) {
            const std::uint32_t e = writeEpoch[w];
            const std::uint32_t idx = w - writeBegin[l];
            if (seenLine[e] != l) {
                seenLine[e] = l;
                lastWrites[cursor[e]++] = {l, idx};
            } else {
                lastWrites[cursor[e] - 1].idx = idx; // later write wins
            }
        }
    }

    // --- cross-thread parents, in log order.
    std::vector<std::uint32_t> edgeChild(edges.size());
    parentBegin.assign(ne + 1, 0);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        edgeChild[i] = epochOf(edges[i].thread, edges[i].epoch);
        ++parentBegin[edgeChild[i] + 1];
    }
    prefixSum(parentBegin);
    parents.resize(edges.size());
    cursor.assign(parentBegin.begin(), parentBegin.end() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        parents[cursor[edgeChild[i]]++] =
            epochOf(edges[i].srcThread, edges[i].srcEpoch);
    }

    // --- one topological order (Kahn) over same-thread predecessors
    // and cross-thread parents; a cycle leaves some epoch unplaced.
    std::vector<std::uint32_t> childBegin(ne + 1, 0);
    for (std::uint32_t p : parents)
        ++childBegin[p + 1];
    prefixSum(childBegin);
    std::vector<std::uint32_t> children(parents.size());
    cursor.assign(childBegin.begin(), childBegin.end() - 1);
    std::vector<std::uint32_t> indeg(ne);
    for (std::uint32_t c = 0; c < ne; ++c) {
        for (std::uint32_t i = parentBegin[c]; i < parentBegin[c + 1]; ++i)
            children[cursor[parents[i]]++] = c;
        indeg[c] = (hasPred(c) ? 1 : 0) + parentBegin[c + 1] -
                   parentBegin[c];
    }
    topo.reserve(ne);
    for (std::uint32_t c = 0; c < ne; ++c) {
        if (indeg[c] == 0)
            topo.push_back(c);
    }
    auto release = [&](std::uint32_t c) {
        if (--indeg[c] == 0)
            topo.push_back(c);
    };
    for (std::size_t head = 0; head < topo.size(); ++head) {
        const std::uint32_t p = topo[head];
        if (p + 1 < ne && hasPred(p + 1))
            release(p + 1);
        for (std::uint32_t i = childBegin[p]; i < childBegin[p + 1]; ++i)
            release(children[i]);
    }
    if (topo.size() != ne)
        topo.clear(); // dependency cycle: no topological order
}

std::int64_t
CheckerIndex::lineId(std::uint64_t addr) const
{
    auto it = std::lower_bound(lineAddr.begin(), lineAddr.end(), addr);
    if (it == lineAddr.end() || *it != addr)
        return -1;
    return it - lineAddr.begin();
}

std::int64_t
CheckerIndex::survivingIdx(std::uint32_t l, std::uint64_t value) const
{
    if (value == 0)
        return -1;
    const std::uint32_t *w = tokens.find(value);
    if (!w || *w < writeBegin[l] || *w >= writeBegin[l + 1])
        return kAlien;
    return *w - writeBegin[l];
}

CheckResult
CheckerIndex::check(const NvmView &view,
                    const std::vector<std::uint64_t> &committed_up_to)
    const
{
    CheckResult res;
    auto fail = [&res](const std::string &msg) {
        res.ok = false;
        res.message = msg;
        return res;
    };
    if (!buildOk)
        return fail(buildMessage);

    // --- surviving index per line ----------------------------------------
    // -1 means "no recorded write survived" (initial contents).
    const std::uint32_t nl = static_cast<std::uint32_t>(numLines());
    std::vector<std::int64_t> surv(nl);
    for (std::uint32_t l = 0; l < nl; ++l) {
        const std::uint64_t v = view.read(lineAddr[l]);
        surv[l] = survivingIdx(l, v);
        if (surv[l] == kAlien) {
            std::ostringstream os;
            os << "line " << lineAddr[l] << " holds alien value " << v;
            return fail(os.str());
        }
    }

    // --- checks ------------------------------------------------------------
    // An epoch is "fully visible" if, for every line it wrote, the
    // surviving write index is >= the epoch's last write index.
    auto epochVisible = [&](std::uint32_t e, std::string *why) {
        for (std::uint32_t i = lastBegin[e]; i < lastBegin[e + 1]; ++i) {
            const LastWrite &lw = lastWrites[i];
            if (surv[lw.line] < static_cast<std::int64_t>(lw.idx)) {
                if (why) {
                    std::ostringstream os;
                    os << "epoch (t" << epochThread[e] << ",e"
                       << epochTs[e] << ") write idx " << lw.idx
                       << " to line " << lineAddr[lw.line]
                       << " not durable (surviving idx "
                       << surv[lw.line] << ")";
                    *why = os.str();
                }
                return false;
            }
        }
        return true;
    };

    // Walk ancestors of a seed epoch (LIFO: same-thread predecessor,
    // then cross-thread parents), verifying visibility of every strict
    // ancestor. The visited set depends on `surv`, so it is per-check
    // scratch — never shared across states.
    std::vector<std::uint8_t> visited(numEpochs(), 0);
    std::vector<std::uint32_t> work;
    auto pushParents = [&](std::uint32_t e) {
        if (hasPred(e))
            work.push_back(e - 1);
        for (std::uint32_t i = parentBegin[e]; i < parentBegin[e + 1]; ++i)
            work.push_back(parents[i]);
    };
    auto verifyAncestors = [&](std::uint32_t seed, std::string *why) {
        work.clear();
        pushParents(seed);
        while (!work.empty()) {
            const std::uint32_t e = work.back();
            work.pop_back();
            if (visited[e])
                continue;
            visited[e] = 1;
            if (!epochVisible(e, why))
                return false;
            pushParents(e);
        }
        return true;
    };

    // Check 1: prefix closure for every surviving value's epoch.
    for (std::uint32_t l = 0; l < nl; ++l) {
        if (surv[l] < 0)
            continue;
        const std::uint32_t e = writeEpoch[writeBegin[l] + surv[l]];
        std::string why;
        if (!verifyAncestors(e, &why)) {
            std::ostringstream os;
            os << "surviving value on line " << lineAddr[l] << " (epoch t"
               << epochThread[e] << ",e" << epochTs[e]
               << ") has a non-durable ancestor: " << why;
            return fail(os.str());
        }
    }

    // Check 2: committed epochs are fully durable, including their
    // ancestors. Ids run in (thread, ts) order.
    for (std::uint32_t e = 0; e < numEpochs(); ++e) {
        if (!committed(e, committed_up_to))
            continue;
        std::string why;
        if (!epochVisible(e, &why)) {
            std::ostringstream os;
            os << "committed epoch (t" << epochThread[e] << ",e"
               << epochTs[e] << ") lost a write: " << why;
            return fail(os.str());
        }
        if (!verifyAncestors(e, &why)) {
            std::ostringstream os;
            os << "committed epoch (t" << epochThread[e] << ",e"
               << epochTs[e] << ") has a non-durable ancestor: " << why;
            return fail(os.str());
        }
    }

    return res;
}

CheckScope::CheckScope(std::shared_ptr<const CheckerIndex> index,
                       const NvmContents &base,
                       const std::vector<std::uint64_t> &committed_up_to,
                       const std::vector<std::uint64_t> &variable_lines)
    : index_(std::move(index))
{
    const CheckerIndex &ix = *index_;
    if (!ix.buildOk) {
        // Every check fails with the build message; the full-check
        // fallback reproduces it.
        constantFail_ = true;
        usable_ = true;
        return;
    }

    // Duplicate variable lines would make "the value of line L"
    // ambiguous — bail rather than guess.
    {
        std::vector<std::uint64_t> sorted(variable_lines);
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end())
            return;
    }

    // Slot table: variable line -> line id, and back.
    const std::uint32_t nl = static_cast<std::uint32_t>(ix.numLines());
    const std::uint32_t ne = static_cast<std::uint32_t>(ix.numEpochs());
    const std::size_t ns = variable_lines.size();
    std::vector<std::int64_t> slotOf(nl, -1);
    slotLine_.assign(ns, kUnlogged);
    slotSeed_.assign(ns, 0);
    for (std::size_t i = 0; i < ns; ++i) {
        const std::int64_t l = ix.lineId(variable_lines[i]);
        if (l >= 0) {
            slotLine_[i] = static_cast<std::uint32_t>(l);
            slotOf[l] = static_cast<std::int64_t>(i);
        }
    }

    // Base surviving index per fixed line. A fixed alien value fails
    // every state, whatever the variable lines hold.
    std::vector<std::int64_t> survBase(nl, -1);
    for (std::uint32_t l = 0; l < nl; ++l) {
        if (slotOf[l] >= 0)
            continue;
        survBase[l] = ix.survivingIdx(l, base.read(ix.lineAddr[l]));
        if (survBase[l] == CheckerIndex::kAlien) {
            constantFail_ = true;
            usable_ = true;
            return;
        }
    }

    // Variable epochs (those writing a variable line), bit-numbered in
    // epoch id order.
    std::vector<std::int32_t> varBit(ne, -1);
    for (std::uint32_t l : slotLine_) {
        if (l == kUnlogged)
            continue;
        for (std::uint32_t w = ix.writeBegin[l]; w < ix.writeBegin[l + 1];
             ++w)
            varBit[ix.writeEpoch[w]] = 0;
    }
    std::int32_t nv = 0;
    for (std::int32_t &b : varBit) {
        if (b < 0)
            continue;
        if (nv == 64)
            return;
        b = nv++;
    }
    auto bitOf = [&varBit](std::uint32_t e) {
        return varBit[e] < 0 ? std::uint64_t{0} : 1ULL << varBit[e];
    };

    // Per variable epoch, its writes to variable lines (needs) and
    // whether a fixed line already lost one of its writes; per fixed
    // epoch, base visibility.
    needBegin_.assign(static_cast<std::size_t>(nv) + 1, 0);
    std::vector<std::uint8_t> visBase(ne, 1);
    for (std::uint32_t e = 0; e < ne; ++e) {
        for (std::uint32_t i = ix.lastBegin[e]; i < ix.lastBegin[e + 1];
             ++i) {
            const CheckerIndex::LastWrite &lw = ix.lastWrites[i];
            if (slotOf[lw.line] >= 0) {
                needs_.push_back(
                    {static_cast<std::uint32_t>(slotOf[lw.line]), lw.idx});
            } else if (survBase[lw.line] <
                       static_cast<std::int64_t>(lw.idx)) {
                neverVisible_ |= bitOf(e);
                visBase[e] = 0;
            }
        }
        if (varBit[e] >= 0)
            needBegin_[varBit[e] + 1] =
                static_cast<std::uint32_t>(needs_.size());
    }
    auto badFixed = [&](std::uint32_t e) {
        return varBit[e] < 0 && !visBase[e];
    };

    if (ix.topo.size() != ne)
        return; // dependency cycle: no safe topological order

    // One pass in topological order gives, per epoch, whether a strict
    // ancestor is a non-visible fixed epoch (ancBad) and which
    // variable epochs are strict ancestors (anc mask).
    std::vector<std::uint64_t> anc(ne, 0);
    std::vector<std::uint8_t> ancBad(ne, 0);
    for (const std::uint32_t e : ix.topo) {
        std::uint64_t a = 0;
        bool bad = false;
        auto pull = [&](std::uint32_t p) {
            a |= anc[p] | bitOf(p);
            bad = bad || ancBad[p] || badFixed(p);
        };
        if (ix.hasPred(e))
            pull(e - 1);
        for (std::uint32_t i = ix.parentBegin[e]; i < ix.parentBegin[e + 1];
             ++i)
            pull(ix.parents[i]);
        anc[e] = a;
        ancBad[e] = bad;
    }

    // Static fail sources: committed epochs (Check 2) and fixed
    // lines' surviving epochs (Check 1). A fixed violation is a
    // constant fail; variable ancestors accumulate into the mask of
    // epochs every consistent state must keep visible.
    for (std::uint32_t e = 0; e < ne; ++e) {
        if (!ix.committed(e, committed_up_to))
            continue;
        if (ancBad[e] || badFixed(e)) {
            constantFail_ = true;
            usable_ = true;
            return;
        }
        staticBadMask_ |= anc[e] | bitOf(e);
    }
    for (std::uint32_t l = 0; l < nl; ++l) {
        if (slotOf[l] >= 0 || survBase[l] < 0)
            continue;
        const std::uint32_t e = ix.writeEpoch[ix.writeBegin[l] + survBase[l]];
        if (ancBad[e]) {
            constantFail_ = true;
            usable_ = true;
            return;
        }
        staticBadMask_ |= anc[e];
    }

    // Per-slot seed tables: ancestor facts for every write that can
    // survive on a variable line.
    for (std::size_t i = 0; i < ns; ++i) {
        const std::uint32_t l = slotLine_[i];
        if (l == kUnlogged)
            continue;
        slotSeed_[i] = static_cast<std::uint32_t>(seeds_.size());
        for (std::uint32_t w = ix.writeBegin[l]; w < ix.writeBegin[l + 1];
             ++w) {
            const std::uint32_t e = ix.writeEpoch[w];
            seeds_.push_back({ancBad[e] != 0, anc[e]});
        }
    }
    usable_ = true;
}

bool
CheckScope::consistent(const std::vector<std::uint64_t> &values,
                       Scratch &scratch) const
{
    if (constantFail_)
        return false;
    const CheckerIndex &ix = *index_;

    // Surviving write index per variable line (alien value: not
    // fast-provable, let the full check produce the message).
    const std::size_t ns = slotLine_.size();
    scratch.surv.assign(ns, -1);
    for (std::size_t i = 0; i < ns; ++i) {
        if (slotLine_[i] == kUnlogged)
            continue; // the checker never reads this line
        scratch.surv[i] = ix.survivingIdx(slotLine_[i], values[i]);
        if (scratch.surv[i] == CheckerIndex::kAlien)
            return false;
    }

    // Visibility of the variable epochs under this state.
    std::uint64_t notVisible = neverVisible_;
    for (std::size_t b = 0; b + 1 < needBegin_.size(); ++b) {
        if (notVisible >> b & 1)
            continue;
        for (std::uint32_t i = needBegin_[b]; i < needBegin_[b + 1]; ++i) {
            const Need &n = needs_[i];
            if (scratch.surv[n.slot] < static_cast<std::int64_t>(n.idx)) {
                notVisible |= 1ULL << b;
                break;
            }
        }
    }

    // Check 2 (+ Check 1 for fixed lines): a committed epoch, or a
    // strict ancestor of a committed epoch or fixed surviving value,
    // lost a write.
    if (notVisible & staticBadMask_)
        return false;

    // Check 1 for variable lines: the surviving value's epoch has a
    // non-durable strict ancestor.
    for (std::size_t i = 0; i < ns; ++i) {
        const std::int64_t idx = scratch.surv[i];
        if (idx < 0)
            continue;
        const SeedInfo &s = seeds_[slotSeed_[i] + idx];
        if (s.ancBadFixed || (s.varAncMask & notVisible))
            return false;
    }
    return true;
}

CheckResult
checkCrashConsistency(const RunLog &log, const NvmContents &nvm,
                      const std::vector<std::uint64_t> &committed_up_to)
{
    // Deliberately unmemoised: this is the one-shot path (and the
    // permuter's naive baseline engine) — it pays the full index build
    // per call.
    CheckerIndex index(log);
    return index.check(NvmView(nvm), committed_up_to);
}

namespace
{

/** 128-bit content hash of a RunLog: two independent multiply-xorshift
 *  streams over every store and edge field, a word at a time. The
 *  index is a pure function of this content, so the hash is a safe
 *  memo key. */
struct LogFingerprint
{
    std::uint64_t a = 14695981039346656037ULL;
    std::uint64_t b = 0x2b992ddfa23249d6ULL;

    void
    mix(std::uint64_t v)
    {
        a = (a ^ v) * 0x9e3779b97f4a7c15ULL;
        a ^= a >> 32;
        b = (b + v) * 0xbf58476d1ce4e5b9ULL;
        b ^= b >> 29;
    }

    bool
    operator==(const LogFingerprint &o) const
    {
        return a == o.a && b == o.b;
    }
};

LogFingerprint
fingerprintLog(const RunLog &log)
{
    LogFingerprint fp;
    fp.mix(log.allStores().size());
    for (const RunLog::StoreRecord &s : log.allStores()) {
        fp.mix(s.seq);
        fp.mix((static_cast<std::uint64_t>(s.thread) << 32) ^ s.epoch);
        fp.mix(s.line);
        fp.mix(s.value);
    }
    fp.mix(log.allEdges().size());
    for (const RunLog::DepEdge &e : log.allEdges()) {
        fp.mix((static_cast<std::uint64_t>(e.thread) << 32) ^
               e.srcThread);
        fp.mix(e.epoch);
        fp.mix(e.srcEpoch);
    }
    return fp;
}

struct IndexCacheEntry
{
    LogFingerprint key;
    std::shared_ptr<const CheckerIndex> index;
};

/** Logs alive at once are few (one per in-flight experiment); a small
 *  FIFO window is plenty to bridge probe -> verdict -> permute reuse. */
constexpr std::size_t kIndexCacheCap = 16;

std::mutex gIndexMu;
std::deque<IndexCacheEntry> gIndexCache;
std::atomic<std::uint64_t> gIndexBuilds{0};
std::atomic<std::uint64_t> gIndexHits{0};

} // namespace

std::shared_ptr<const CheckerIndex>
sharedCheckerIndex(const RunLog &log)
{
    const LogFingerprint key = fingerprintLog(log);
    {
        std::lock_guard<std::mutex> lock(gIndexMu);
        for (const IndexCacheEntry &e : gIndexCache) {
            if (e.key == key) {
                gIndexHits.fetch_add(1, std::memory_order_relaxed);
                return e.index;
            }
        }
    }
    // Build outside the lock: concurrent misses on the same log may
    // build twice, but never block each other behind a sort.
    auto index = std::make_shared<const CheckerIndex>(log);
    gIndexBuilds.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(gIndexMu);
        gIndexCache.push_back({key, index});
        while (gIndexCache.size() > kIndexCacheCap)
            gIndexCache.pop_front();
    }
    return index;
}

CheckerIndexStats
checkerIndexStats()
{
    CheckerIndexStats s;
    s.builds = gIndexBuilds.load(std::memory_order_relaxed);
    s.hits = gIndexHits.load(std::memory_order_relaxed);
    return s;
}

void
clearCheckerIndexCache()
{
    std::lock_guard<std::mutex> lock(gIndexMu);
    gIndexCache.clear();
    gIndexBuilds.store(0, std::memory_order_relaxed);
    gIndexHits.store(0, std::memory_order_relaxed);
}

} // namespace asap
