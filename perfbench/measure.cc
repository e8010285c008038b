/**
 * @file
 * The untraced run (the program's own entry points, timed end to end)
 * and the parse-back of the artifacts it writes.
 */

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <iterator>

#include "bench.hh"
#include "exp/emit.hh"
#include "recovery/checker.hh"

namespace perfbench
{

using namespace asap;

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

UntracedRun
runUntraced(const Plan &plan, unsigned workers, const std::string &stem)
{
    clearCaches();
    UntracedRun out;
    RunOptions opt;
    opt.jobs = workers;
    const double cpu0 = cpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();

    if (plan.campaign) {
        const std::vector<ProbeStat> stats = ensureProbeStats(
            plan.spec, opt,
            [&](std::vector<ExperimentJob> jobs, const RunOptions &o) {
                out.probe = runJobs(std::move(jobs), o);
                return out.probe;
            });
        out.batch = runJobs(crashBatch(plan, stats), opt);
    } else {
        out.batch = runJobs(plan.jobs, opt);
    }
    emitToFile(stem + ".json", out.batch);
    emitToFile(stem + ".csv", out.batch);

    out.wallS = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    out.cpuS = cpuSeconds() - cpu0;
    const CheckerIndexStats ix = checkerIndexStats();
    out.indexBuilds = ix.builds;
    out.indexHits = ix.hits;
    return out;
}

namespace
{

std::string
slurp(const std::string &path, bool &ok)
{
    std::ifstream is(path, std::ios::binary);
    ok = static_cast<bool>(is);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/** Minimal validating JSON reader: parses the whole document and
 *  counts the elements of the top-level "results" array. */
class JsonRows
{
  public:
    explicit JsonRows(const std::string &text) : s(text) {}

    long
    count()
    {
        ws();
        value(0, false);
        ws();
        return ok && i == s.size() && rows >= 0 ? rows : -1;
    }

  private:
    void
    ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\t' || s[i] == '\r'))
            ++i;
    }

    bool
    eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        std::string out;
        if (!eat('"')) {
            fail();
            return out;
        }
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\')
                ++i;
            if (i < s.size())
                out += s[i++];
        }
        if (i >= s.size())
            fail();
        ++i;
        return out;
    }

    void
    value(int depth, bool results)
    {
        ws();
        if (!ok || i >= s.size() || depth > 64)
            return fail();
        const char c = s[i];
        if (c == '{') {
            ++i;
            if (eat('}'))
                return;
            do {
                const std::string key = string();
                if (!eat(':'))
                    return fail();
                value(depth + 1, depth == 0 && key == "results");
            } while (ok && eat(','));
            if (!eat('}'))
                fail();
        } else if (c == '[') {
            ++i;
            long n = 0;
            if (!eat(']')) {
                do {
                    value(depth + 1, false);
                    ++n;
                } while (ok && eat(','));
                if (!eat(']'))
                    fail();
            }
            if (results)
                rows = n;
        } else if (c == '"') {
            string();
        } else {
            const std::size_t start = i;
            while (i < s.size() &&
                   std::string("+-.0123456789eEtrufalsn").find(s[i]) !=
                       std::string::npos)
                ++i;
            if (i == start)
                fail();
        }
    }

    void fail() { ok = false; }

    const std::string &s;
    std::size_t i = 0;
    bool ok = true;
    long rows = -1;
};

} // namespace

long
jsonArtifactRows(const std::string &path)
{
    bool ok = false;
    const std::string text = slurp(path, ok);
    return ok ? JsonRows(text).count() : -1;
}

long
csvArtifactRows(const std::string &path)
{
    bool ok = false;
    const std::string text = slurp(path, ok);
    if (!ok)
        return -1;
    long records = 0;
    std::size_t fields = 1, headerFields = 0;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"' && i + 1 < text.size() && text[i + 1] == '"')
                ++i;
            else if (c == '"')
                quoted = false;
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            ++fields;
        } else if (c == '\n') {
            if (records == 0)
                headerFields = fields;
            else if (fields != headerFields)
                return -1;
            ++records;
            fields = 1;
        }
    }
    if (quoted || records == 0 || fields != 1)
        return -1;
    return records - 1;
}

} // namespace perfbench
