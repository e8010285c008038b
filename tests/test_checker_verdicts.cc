/**
 * @file
 * Verdict tests for the crash-consistency checker beyond its unit
 * cases: a differential test against the node-container checker it
 * replaced (kept here as the reference), a property test of the
 * delta-check scope on random logs, and a drop-undo permute campaign
 * whose verdicts are pinned.
 *
 * The three permuter engines all call CheckerIndex::check(), so their
 * parity tests cannot see a regression in the check itself; the
 * pinned campaign can.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/crash_campaign.hh"
#include "exp/emit.hh"
#include "mem/nvm_contents.hh"
#include "recovery/checker.hh"
#include "recovery/run_log.hh"
#include "sim/log.hh"

namespace asap
{
namespace
{

// ------------------------------------------------- reference checker

namespace reference
{

/**
 * The checker before dense ids: a std::map of epochs each owning an
 * unordered_map of last writes, per-check unordered_map survivors and
 * a std::set visited list. Same predicate; its witnesses follow
 * hash-table order.
 */
class CheckerIndex
{
  public:
    explicit CheckerIndex(const RunLog &log);
    CheckResult check(const NvmView &view,
                      const std::vector<std::uint64_t> &committed) const;

  private:
    using Key = std::pair<std::uint16_t, std::uint64_t>;

    struct EpochNode
    {
        std::unordered_map<std::uint64_t, std::size_t> lastWrite;
        std::vector<Key> depParents;
    };

    std::unordered_map<std::uint64_t, std::vector<RunLog::StoreRecord>>
        lineWrites;
    std::unordered_map<std::uint64_t,
                       std::pair<std::uint64_t, std::size_t>>
        tokenIndex;
    std::map<Key, EpochNode> nodes;
    std::unordered_map<std::uint16_t, std::vector<std::uint64_t>>
        byThread;
    bool buildOk = true;
    std::string buildMessage;
};

CheckerIndex::CheckerIndex(const RunLog &log)
{
    for (const RunLog::StoreRecord &s : log.allStores())
        lineWrites[s.line].push_back(s);
    for (auto &[line, ws] : lineWrites) {
        std::sort(ws.begin(), ws.end(),
                  [](const auto &a, const auto &b) {
                      return a.seq < b.seq;
                  });
        for (std::size_t i = 0; i < ws.size(); ++i) {
            if (tokenIndex.count(ws[i].value)) {
                if (buildOk) {
                    std::ostringstream os;
                    os << "duplicate store token " << ws[i].value;
                    buildOk = false;
                    buildMessage = os.str();
                }
                continue;
            }
            tokenIndex[ws[i].value] = {line, i};
        }
    }
    for (auto &[line, ws] : lineWrites) {
        for (std::size_t i = 0; i < ws.size(); ++i) {
            EpochNode &n = nodes[{ws[i].thread, ws[i].epoch}];
            n.lastWrite[line] = i;
        }
    }
    for (const RunLog::DepEdge &e : log.allEdges()) {
        nodes[{e.thread, e.epoch}].depParents.push_back(
            {e.srcThread, e.srcEpoch});
        nodes.try_emplace({e.srcThread, e.srcEpoch});
    }
    for (const auto &[key, node] : nodes)
        byThread[key.first].push_back(key.second);
    for (auto &[t, v] : byThread)
        std::sort(v.begin(), v.end());
}

CheckResult
CheckerIndex::check(const NvmView &view,
                    const std::vector<std::uint64_t> &committed) const
{
    CheckResult res;
    auto fail = [&res](const std::string &msg) {
        res.ok = false;
        res.message = msg;
        return res;
    };
    if (!buildOk)
        return fail(buildMessage);

    std::unordered_map<std::uint64_t, std::ptrdiff_t> survived;
    for (const auto &[line, ws] : lineWrites) {
        const std::uint64_t v = view.read(line);
        if (v == 0) {
            survived[line] = -1;
            continue;
        }
        auto it = tokenIndex.find(v);
        if (it == tokenIndex.end() || it->second.first != line) {
            std::ostringstream os;
            os << "line " << line << " holds alien value " << v;
            return fail(os.str());
        }
        survived[line] = static_cast<std::ptrdiff_t>(it->second.second);
    }

    auto epochVisible = [&](const Key &k, std::string *why) {
        auto nit = nodes.find(k);
        if (nit == nodes.end())
            return true;
        for (const auto &[line, idx] : nit->second.lastWrite) {
            auto sit = survived.find(line);
            const std::ptrdiff_t got =
                sit == survived.end() ? -1 : sit->second;
            if (got < static_cast<std::ptrdiff_t>(idx)) {
                std::ostringstream os;
                os << "epoch (t" << k.first << ",e" << k.second
                   << ") write idx " << idx << " to line " << line
                   << " not durable (surviving idx " << got << ")";
                *why = os.str();
                return false;
            }
        }
        return true;
    };

    std::set<Key> verified;
    auto verifyAncestors = [&](Key seed, std::string *why) {
        std::vector<Key> work;
        auto push_parents = [&](const Key &k) {
            auto bit = byThread.find(k.first);
            if (bit != byThread.end()) {
                const auto &v = bit->second;
                auto it = std::lower_bound(v.begin(), v.end(), k.second);
                if (it != v.begin())
                    work.push_back({k.first, *std::prev(it)});
            }
            auto nit = nodes.find(k);
            if (nit != nodes.end()) {
                for (const Key &p : nit->second.depParents)
                    work.push_back(p);
            }
        };
        push_parents(seed);
        while (!work.empty()) {
            Key k = work.back();
            work.pop_back();
            if (verified.count(k))
                continue;
            verified.insert(k);
            if (!epochVisible(k, why))
                return false;
            push_parents(k);
        }
        return true;
    };

    for (const auto &[line, idx] : survived) {
        if (idx < 0)
            continue;
        const RunLog::StoreRecord &w =
            lineWrites.at(line)[static_cast<std::size_t>(idx)];
        std::string why;
        if (!verifyAncestors({w.thread, w.epoch}, &why)) {
            std::ostringstream os;
            os << "surviving value on line " << line << " (epoch t"
               << w.thread << ",e" << w.epoch
               << ") has a non-durable ancestor: " << why;
            return fail(os.str());
        }
    }

    for (std::uint16_t t = 0;
         t < static_cast<std::uint16_t>(committed.size()); ++t) {
        auto bit = byThread.find(t);
        if (bit == byThread.end())
            continue;
        for (std::uint64_t ts : bit->second) {
            if (ts > committed[t])
                break;
            std::string why;
            if (!epochVisible({t, ts}, &why)) {
                std::ostringstream os;
                os << "committed epoch (t" << t << ",e" << ts
                   << ") lost a write: " << why;
                return fail(os.str());
            }
            if (!verifyAncestors({t, ts}, &why)) {
                std::ostringstream os;
                os << "committed epoch (t" << t << ",e" << ts
                   << ") has a non-durable ancestor: " << why;
                return fail(os.str());
            }
        }
    }
    return res;
}

} // namespace reference

/**
 * What a checker message pins down regardless of witness order: its
 * violation class and, for committed-durability violations, the
 * committed epoch (the first in (thread, ts) order either way).
 */
std::string
violationClass(const std::string &message)
{
    if (message.empty())
        return "ok";
    for (const char *cls :
         {"duplicate store token", "reserved store token", "alien value",
          "surviving value"}) {
        if (message.find(cls) != std::string::npos)
            return cls;
    }
    const std::string committed = "committed epoch ";
    const std::size_t at = message.find(committed);
    if (at != std::string::npos) {
        const std::size_t end = message.find(')', at);
        const std::string epoch =
            message.substr(at + committed.size(),
                           end + 1 - at - committed.size());
        return message.find(") lost a write", at) == end
                   ? "committed " + epoch + " lost a write"
                   : "committed " + epoch + " has a non-durable ancestor";
    }
    return "unknown: " + message;
}

// ------------------------------------------------------ random logs

/** A seeded random run log plus the pool of lines it writes. */
struct RandomLog
{
    RunLog log;
    unsigned threads = 1;
    std::vector<std::uint64_t> lines; //!< pool, in no address order
    std::vector<std::vector<std::uint64_t>> tokens; //!< per pool line
    std::vector<unsigned> storeLine; //!< pool index of each store
    std::vector<std::uint64_t> committed;
};

RandomLog
makeRandomLog(std::mt19937_64 &rng)
{
    RandomLog r;
    r.threads = 1 + rng() % 4;
    // A small pool, so lines take several writes each.
    std::set<std::uint64_t> used;
    const unsigned nLines = 2 + rng() % 6;
    while (r.lines.size() < nLines) {
        const std::uint64_t line = 1 + rng() % 1000;
        if (used.insert(line).second)
            r.lines.push_back(line);
    }
    r.tokens.resize(nLines);

    std::vector<std::vector<std::uint64_t>> epochs(r.threads);
    for (auto &e : epochs) {
        std::uint64_t ts = 1 + rng() % 3;
        for (unsigned i = 1 + rng() % 5; i > 0; --i) {
            e.push_back(ts);
            ts += 1 + rng() % 3;
        }
    }
    auto someEpoch = [&](unsigned t) {
        return epochs[t][rng() % epochs[t].size()];
    };

    // Each thread's stores advance through its epochs in order, as a
    // core's do.
    std::vector<std::size_t> cur(r.threads, 0);
    std::vector<std::uint64_t> all;
    for (unsigned n = 1 + rng() % 25; n > 0; --n) {
        const unsigned t = rng() % r.threads;
        if (cur[t] + 1 < epochs[t].size() && rng() % 3 == 0)
            ++cur[t];
        const unsigned li = rng() % nLines;
        std::uint64_t token = 1 + rng() % (1ULL << 40);
        if (!all.empty() && rng() % 300 == 0)
            token = all[rng() % all.size()]; // duplicate token
        all.push_back(token);
        r.tokens[li].push_back(token);
        r.storeLine.push_back(li);
        r.log.recordStore(static_cast<std::uint16_t>(t), epochs[t][cur[t]],
                          r.lines[li], token);
    }

    // Dependency edges, mostly cross-thread; any may close a cycle.
    // Some sources are epochs that never stored.
    for (unsigned n = rng() % 6; n > 0; --n) {
        const unsigned t = rng() % r.threads;
        unsigned src = rng() % r.threads;
        if (src == t && r.threads > 1 && rng() % 4 != 0)
            src = (t + 1) % r.threads;
        const std::uint64_t srcEpoch =
            rng() % 8 == 0 ? epochs[src].back() + 1 + rng() % 3
                           : someEpoch(src);
        r.log.recordEdge(static_cast<std::uint16_t>(t), someEpoch(t),
                         static_cast<std::uint16_t>(src), srcEpoch);
    }

    // Committed frontier per thread, often none (0: epochs start at 1);
    // sometimes one thread more or fewer than the log has.
    unsigned nCommitted = r.threads;
    if (rng() % 5 == 0)
        nCommitted = nCommitted + (rng() % 2 ? 1 : -1);
    for (unsigned t = 0; t < nCommitted; ++t) {
        const unsigned pick = rng() % 4;
        if (t >= r.threads || pick < 2)
            r.committed.push_back(0);
        else if (pick == 3)
            r.committed.push_back(epochs[t].back());
        else
            r.committed.push_back(someEpoch(t));
    }
    return r;
}

/** A random value for pool line @p li: mostly zero or one of the
 *  line's own tokens; with @p aliens, also another line's token, a
 *  random alien or ~0. */
std::uint64_t
randomValue(const RandomLog &r, unsigned li, bool aliens,
            std::mt19937_64 &rng)
{
    const unsigned pick = rng() % (aliens ? 10 : 7);
    const std::vector<std::uint64_t> &own = r.tokens[li];
    if (pick < 2 || own.empty())
        return 0;
    if (pick < 7)
        return own[rng() % own.size()];
    if (pick == 7) {
        const std::vector<std::uint64_t> &other =
            r.tokens[rng() % r.tokens.size()];
        return other.empty() ? 0 : other[rng() % other.size()];
    }
    if (pick == 8)
        return (1ULL << 41) + rng() % (1ULL << 20);
    return ~std::uint64_t{0};
}

/**
 * One value per pool line (0: initial contents). Half the draws replay
 * the log up to a store near @p k, now and then with one line changed,
 * so consistent states are common; the rest draw every line at random.
 */
std::vector<std::uint64_t>
randomValues(const RandomLog &r, std::size_t k, std::mt19937_64 &rng)
{
    std::vector<std::uint64_t> v(r.lines.size(), 0);
    if (rng() % 2 == 0) {
        const std::vector<RunLog::StoreRecord> &stores = r.log.allStores();
        k = std::min(stores.size(), k + rng() % 5);
        k = k < 2 ? 0 : k - 2;
        for (std::size_t i = 0; i < k; ++i)
            v[r.storeLine[i]] = stores[i].value;
        if (rng() % 3 == 0) {
            const unsigned li = rng() % v.size();
            v[li] = randomValue(r, li, rng() % 4 == 0, rng);
        }
    } else {
        const bool aliens = rng() % 4 == 0;
        for (unsigned li = 0; li < v.size(); ++li)
            v[li] = randomValue(r, li, aliens, rng);
    }
    return v;
}

NvmContents
randomImage(const RandomLog &r, std::size_t k, std::mt19937_64 &rng)
{
    NvmContents nvm;
    const std::vector<std::uint64_t> v = randomValues(r, k, rng);
    for (unsigned li = 0; li < v.size(); ++li) {
        if (v[li] != 0 || rng() % 2 == 0) // else: never written
            nvm.write(r.lines[li], v[li]);
    }
    return nvm;
}

TEST(CheckerDifferential, RandomLogsMatchReference)
{
    std::mt19937_64 rng(2024);
    std::map<std::string, unsigned> classes;
    for (int c = 0; c < 3000; ++c) {
        const RandomLog r = makeRandomLog(rng);
        const CheckerIndex index(r.log);
        const reference::CheckerIndex ref(r.log);
        for (int s = 0; s < 6; ++s) {
            const NvmContents nvm = randomImage(
                r, rng() % (r.log.allStores().size() + 3), rng);
            const CheckResult got = index.check(NvmView(nvm), r.committed);
            const CheckResult want = ref.check(NvmView(nvm), r.committed);
            ASSERT_EQ(got.ok, want.ok) << "case " << c << " state " << s
                                       << ": " << got.message << " | "
                                       << want.message;
            ASSERT_EQ(violationClass(got.message),
                      violationClass(want.message))
                << "case " << c << " state " << s << ": " << got.message
                << " | " << want.message;
            const std::string cls = violationClass(got.message);
            ++classes[cls.rfind("committed", 0) == 0
                          ? cls.substr(cls.find(')') + 2)
                          : cls];
        }
    }
    // Every violation class turned up, so each was compared.
    for (const char *cls :
         {"ok", "duplicate store token", "alien value", "surviving value",
          "lost a write", "has a non-durable ancestor"}) {
        EXPECT_GE(classes[cls], 20u) << cls;
    }
}

TEST(CheckerDifferential, ScopeAgreesWithFullCheck)
{
    // usable() => consistent() == check().ok, for random variable-line
    // subsets (with now and then a line the log never wrote) of random
    // base images.
    std::mt19937_64 rng(77);
    unsigned usable = 0, proved = 0, states = 0;
    for (int c = 0; c < 2000; ++c) {
        const RandomLog r = makeRandomLog(rng);
        auto index = std::make_shared<const CheckerIndex>(r.log);
        // States stay near the base image's log prefix.
        const std::size_t anchor = rng() % (r.log.allStores().size() + 3);
        const NvmContents base = randomImage(r, anchor, rng);

        std::vector<unsigned> pool;
        std::vector<std::uint64_t> varLines;
        for (unsigned li = 0; li < r.lines.size(); ++li) {
            if (rng() % 2 == 0) {
                pool.push_back(li);
                varLines.push_back(r.lines[li]);
            }
        }
        if (rng() % 5 == 0)
            varLines.push_back(5000 + rng() % 10); // unlogged line
        const CheckScope scope(index, base, r.committed, varLines);
        if (!scope.usable())
            continue;
        ++usable;

        CheckScope::Scratch scratch;
        for (int s = 0; s < 8; ++s) {
            const std::vector<std::uint64_t> drawn =
                randomValues(r, anchor, rng);
            NvmContents state = base;
            std::vector<std::uint64_t> values;
            for (unsigned li : pool) {
                values.push_back(drawn[li]);
                state.write(r.lines[li], values.back());
            }
            if (values.size() < varLines.size())
                values.push_back(0);
            const bool fast = scope.consistent(values, scratch);
            const CheckResult full =
                index->check(NvmView(state), r.committed);
            ASSERT_EQ(fast, full.ok)
                << "case " << c << " state " << s << ": " << full.message;
            proved += fast;
            ++states;
        }
    }
    EXPECT_GE(usable, 1000u);
    EXPECT_GE(proved, states / 10);
}

// -------------------------------------------- pinned campaign verdicts

/**
 * Verdicts of a small drop-undo permute campaign (queue and heap x
 * asap_ep/asap_rp, 4 cores, 80 ops, 4 stride ticks), pinned: every
 * CSV column except the message, then inconsistentStates,
 * firstBadState and the message's violation class. Only the witness
 * a message names may change with traversal order; everything pinned
 * here is a function of the checker's predicate.
 */
TEST(CheckerVerdicts, DropUndoCampaignPinned)
{
    setLogQuiet(true);
    CampaignSpec spec;
    spec.workloads = {"queue", "heap"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Epoch},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.params.opsPerThread = 80;
    spec.ticksPerConfig = 4;
    spec.sweepKind = JobKind::Permute;
    spec.permuteFault = "drop-undo";

    ResultCache cache;
    RunOptions opt;
    opt.jobs = 4;
    opt.cache = &cache;
    const CampaignResult cr = runCampaign(spec, opt);

    std::ostringstream csv;
    emitCsv(csv, cr.sweep);
    std::istringstream rows(csv.str());
    std::string line;
    std::getline(rows, line);
    ASSERT_EQ(line.substr(line.rfind(',')), ",message");
    std::ostringstream got;
    for (const CrashVerdict &v : cr.sweep.verdicts) {
        ASSERT_TRUE(std::getline(rows, line));
        // The message is the last column (quoted; it holds commas).
        got << line.substr(0, line.find(",\"")) << ','
            << v.inconsistentStates << ',' << v.firstBadState << ','
            << violationClass(v.message) << '\n';
    }
    const std::string expected =
        "queue,asap,ep,4,1,80,20576,180,43,0,0,0,0,391,990,342,364,252,"
        "109,0,8,0.616003,6,194,0,permute,20576,20576,0,254,424,45,4,7,"
        "16,16,16,0,14,2,surviving value\n"
        "queue,asap,ep,4,1,80,41153,385,94,0,0,0,0,849,2122,735,808,"
        "550,257,0,8,0.690876,6,440,0,permute,41153,41153,0,556,925,96,"
        "3,6,8,8,8,0,6,2,surviving value\n"
        "queue,asap,ep,4,1,80,61730,594,132,0,0,0,0,1275,3219,1118,"
        "1220,833,386,0,8,0.686472,6,654,0,permute,61730,61730,0,812,"
        "1388,134,3,6,8,8,8,0,5,2,surviving value\n"
        "queue,asap,ep,4,1,80,82307,818,187,0,0,2914,0,1730,4320,1494,"
        "1658,1130,528,0,8,0.702439,6,882,0,permute,82307,82307,1,1094,"
        "1876,189,0,4,1,1,1,0,0,,ok\n"
        "queue,asap,rp,4,1,80,20576,180,43,0,0,0,0,391,383,77,364,252,"
        "109,0,8,0.616003,6,194,0,permute,20576,20576,0,98,424,45,4,7,"
        "16,16,16,0,14,2,surviving value\n"
        "queue,asap,rp,4,1,80,41153,385,94,0,0,0,0,849,810,158,808,550,"
        "257,0,8,0.690876,6,440,0,permute,41153,41153,0,209,925,96,3,6,"
        "8,8,8,0,6,2,surviving value\n"
        "queue,asap,rp,4,1,80,61730,594,132,0,0,0,0,1275,1222,239,1220,"
        "833,386,0,8,0.686472,6,654,0,permute,61730,61730,0,311,1388,"
        "134,3,6,8,8,8,0,5,2,surviving value\n"
        "queue,asap,rp,4,1,80,82307,818,187,0,0,2914,0,1730,1651,319,"
        "1658,1130,528,0,8,0.702439,6,882,0,permute,82307,82307,1,418,"
        "1876,189,0,4,1,1,1,0,0,,ok\n"
        "heap,asap,ep,4,1,80,36990,484,142,0,0,0,0,1268,2022,644,1254,"
        "618,632,0,19,2.15217,18,563,0,permute,36990,36990,0,516,1626,"
        "143,5,8,128,128,48,0,104,8,surviving value\n"
        "heap,asap,ep,4,1,80,73981,1161,318,0,0,0,0,2866,4274,1343,"
        "2837,1338,1490,0,27,2.56843,19,1222,0,permute,73981,73981,0,"
        "1103,3708,319,7,8,128,128,128,0,126,1,surviving value\n"
        "heap,asap,ep,4,1,80,110972,1868,495,0,0,0,0,4459,6598,2086,"
        "4438,2121,2316,0,27,2.66343,20,1899,0,permute,110972,110972,1,"
        "1715,5778,497,1,8,2,2,2,0,0,,ok\n"
        "heap,asap,ep,4,1,80,147963,2600,678,0,0,5587,0,6148,8916,2804,"
        "6121,2904,3217,0,27,2.79583,20,2599,0,permute,147963,147963,1,"
        "2346,7980,681,0,10,1,1,1,0,0,,ok\n"
        "heap,asap,rp,4,1,80,36966,482,142,0,0,0,0,1265,829,96,1252,"
        "622,627,0,19,2.15238,18,573,0,permute,36966,36966,0,214,1622,"
        "143,4,8,16,16,16,0,15,1,surviving value\n"
        "heap,asap,rp,4,1,80,73933,1152,316,0,0,0,0,2866,1763,175,2832,"
        "1359,1463,0,27,2.56444,19,1233,0,permute,73933,73933,0,452,"
        "3708,319,4,6,16,16,16,0,14,2,surviving value\n"
        "heap,asap,rp,4,1,80,110900,1860,494,0,0,0,0,4459,2676,250,"
        "4436,2168,2267,0,27,2.66284,20,1939,0,permute,110900,110900,0,"
        "700,5778,497,2,7,4,4,4,0,2,2,surviving value\n"
        "heap,asap,rp,4,1,80,147867,2576,677,0,0,5195,0,6148,3627,319,"
        "6119,2979,3140,0,27,2.79521,20,2666,0,permute,147867,147867,1,"
        "970,7980,681,0,12,1,1,1,0,0,,ok\n";
    EXPECT_EQ(got.str(), expected);
}

} // namespace
} // namespace asap
