#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench
{

namespace
{

/** Spans the calling thread has open, innermost last. */
thread_local std::vector<std::int64_t> openSpans;
thread_local unsigned workerId = 0;

} // namespace

void
SpanRecorder::setWorker(unsigned w)
{
    workerId = w;
}

unsigned
SpanRecorder::worker()
{
    return workerId;
}

std::int64_t
SpanRecorder::begin(std::string name, std::int64_t job,
                    std::int64_t parent)
{
    if (parent == kNone && !openSpans.empty())
        parent = openSpans.back();
    std::int64_t id;
    {
        std::lock_guard<std::mutex> lock(mu);
        id = static_cast<std::int64_t>(spans.size());
        Span s;
        s.name = std::move(name);
        s.parent = parent;
        s.job = job;
        s.worker = workerId;
        s.startNs = nowNs();
        spans.push_back(std::move(s));
    }
    openSpans.push_back(id);
    return id;
}

void
SpanRecorder::end(std::int64_t id)
{
    const std::uint64_t t = nowNs();
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mu);
    spans[static_cast<std::size_t>(id)].endNs = t;
}

std::int64_t
SpanRecorder::add(std::string name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::int64_t parent,
                  std::int64_t job, bool derived)
{
    std::lock_guard<std::mutex> lock(mu);
    Span s;
    s.name = std::move(name);
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.parent = parent;
    s.job = job;
    s.worker = workerId;
    s.derived = derived;
    spans.push_back(std::move(s));
    return static_cast<std::int64_t>(spans.size()) - 1;
}

std::vector<Span>
SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans;
}

SelfTimes
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != kNone)
            children[static_cast<std::size_t>(spans[i].parent)]
                .push_back(i);
    }

    // A span is inside a job tree if it or an ancestor is a job span.
    // Parents always precede their children, so one forward pass
    // settles it.
    std::vector<bool> inJob(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        inJob[i] = spans[i].name == "exp.job" ||
                   (spans[i].parent != kNone &&
                    inJob[static_cast<std::size_t>(spans[i].parent)]);
    }

    SelfTimes out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (std::size_t c : children[i]) {
            const std::uint64_t a = std::max(spans[c].startNs, s.startNs);
            const std::uint64_t b = std::min(spans[c].endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = s.startNs;
        for (const auto &[a, b] : iv) {
            const std::uint64_t from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        const double self = 1e-9 * static_cast<double>(s.durNs() - covered);
        out.layerSelfS[s.layer()] += self;
        out.nameSelfS[s.name] += self;
        ++out.nameCount[s.name];
        if (s.name == "exp.job")
            out.jobSpanS += 1e-9 * static_cast<double>(s.durNs());
        if (inJob[i])
            out.selfInJobsS += self;
    }
    return out;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const Span &s : spans)
        t0 = std::min(t0, s.startNs);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %u",
                      1e-3 * static_cast<double>(s.startNs - t0),
                      1e-3 * static_cast<double>(s.durNs()), s.worker);
        os << "  {\"name\": \"" << s.name << "\", \"cat\": \""
           << s.layer() << "\", \"ph\": \"X\", " << buf
           << ", \"args\": {\"span\": " << i << ", \"parent\": "
           << s.parent << ", \"job\": " << s.job << ", \"derived\": "
           << (s.derived ? "true" : "false") << "}}"
           << (i + 1 < spans.size() ? "," : "") << '\n';
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
