#include "pm/trace_io.hh"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "sim/hash.hh"
#include "sim/log.hh"

namespace asap
{

namespace
{

constexpr std::uint32_t traceMagic = 0x41534150; // "ASAP"
constexpr std::uint32_t traceVersion = 2;

/** Fixed-width on-disk op record. */
struct DiskOp
{
    std::uint8_t type;
    std::uint8_t isPm;
    std::uint16_t pad = 0;
    std::uint32_t cycles;
    std::uint64_t addr;
    std::uint64_t value;
    std::int32_t srcThread;
    std::uint32_t pad2 = 0;
    std::uint64_t srcRelease;
};
static_assert(sizeof(DiskOp) == 40, "on-disk layout is fixed");

/** Version-2 header. The checksum covers everything after the header
 *  (key bytes + op payload), so truncation and bit rot both miss. */
struct Header
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t keyLen;
    std::uint32_t threadCount;
    std::uint64_t checksum;
};
static_assert(sizeof(Header) == 24, "on-disk layout is fixed");

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using File = std::unique_ptr<std::FILE, FileCloser>;

void
appendRaw(std::string &buf, const void *data, std::size_t n)
{
    buf.append(static_cast<const char *>(data), n);
}

/** Key bytes + per-thread op arrays: the checksummed region. */
std::string
serializeBody(const TraceSet &traces, const std::string &key)
{
    std::string body;
    std::size_t ops_total = 0;
    for (const auto &ops : traces.threads)
        ops_total += ops.size();
    body.reserve(key.size() + traces.threads.size() * sizeof(std::uint64_t) +
                 ops_total * sizeof(DiskOp));
    body += key;
    for (const auto &ops : traces.threads) {
        const std::uint64_t count = ops.size();
        appendRaw(body, &count, sizeof(count));
        for (const TraceOp &op : ops) {
            DiskOp d{};
            d.type = static_cast<std::uint8_t>(op.type);
            d.isPm = op.isPm ? 1 : 0;
            d.cycles = op.cycles;
            d.addr = op.addr;
            d.value = op.value;
            d.srcThread = op.srcThread;
            d.srcRelease = op.srcRelease;
            appendRaw(body, &d, sizeof(d));
        }
    }
    return body;
}

std::string
serializeFile(const TraceSet &traces, const std::string &key)
{
    const std::string body = serializeBody(traces, key);
    Header h{};
    h.magic = traceMagic;
    h.version = traceVersion;
    h.keyLen = static_cast<std::uint32_t>(key.size());
    h.threadCount = static_cast<std::uint32_t>(traces.threads.size());
    h.checksum = stableHash64(body.data(), body.size());
    std::string out;
    out.reserve(sizeof(h) + body.size());
    appendRaw(out, &h, sizeof(h));
    out += body;
    return out;
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    File f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return false;
    out.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0)
        out.append(buf, n);
    return std::ferror(f.get()) == 0;
}

/** Cursor over an in-memory file image. */
struct Reader
{
    const std::string &data;
    std::size_t pos = 0;

    bool
    pull(void *dst, std::size_t n)
    {
        if (data.size() - pos < n)
            return false;
        std::memcpy(dst, data.data() + pos, n);
        pos += n;
        return true;
    }
};

bool
parseOps(Reader &r, std::uint32_t thread_count, TraceSet &out,
         std::string *why)
{
    // Each thread needs at least its op count: reject a corrupt
    // header before allocating a vector per claimed thread.
    if (thread_count > (r.data.size() - r.pos) / sizeof(std::uint64_t)) {
        if (why)
            *why = "thread count exceeds the op payload";
        return false;
    }
    TraceSet traces(thread_count);
    for (auto &ops : traces.threads) {
        std::uint64_t count = 0;
        if (!r.pull(&count, sizeof(count)) ||
            (r.data.size() - r.pos) / sizeof(DiskOp) < count) {
            if (why)
                *why = "truncated op payload";
            return false;
        }
        ops.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            DiskOp d;
            r.pull(&d, sizeof(d));
            TraceOp op;
            op.type = static_cast<OpType>(d.type);
            op.isPm = d.isPm != 0;
            op.cycles = d.cycles;
            op.addr = d.addr;
            op.value = d.value;
            op.srcThread = d.srcThread;
            op.srcRelease = d.srcRelease;
            ops.push_back(op);
        }
    }
    if (r.pos != r.data.size()) {
        if (why)
            *why = "trailing bytes after op payload";
        return false;
    }
    out = std::move(traces);
    return true;
}

/**
 * Parse a file image. @p expected_key null accepts any version and
 * any key (the standalone record/replay path); non-null demands a
 * checksummed version-2 file whose key matches (the cache path).
 */
bool
parseTrace(const std::string &data, const std::string *expected_key,
           TraceSet &out, std::string *why)
{
    Reader r{data};
    std::uint32_t magic_version[2];
    if (!r.pull(magic_version, sizeof(magic_version))) {
        if (why)
            *why = "file shorter than a header";
        return false;
    }
    if (magic_version[0] != traceMagic) {
        if (why)
            *why = "not an ASAP trace file";
        return false;
    }

    if (magic_version[1] == 1) {
        if (expected_key) {
            if (why)
                *why = "version 1 (no key/checksum)";
            return false;
        }
        std::uint32_t thread_count = 0;
        if (!r.pull(&thread_count, sizeof(thread_count))) {
            if (why)
                *why = "truncated version-1 header";
            return false;
        }
        return parseOps(r, thread_count, out, why);
    }
    if (magic_version[1] != traceVersion) {
        if (why)
            *why = "unsupported trace version " +
                   std::to_string(magic_version[1]);
        return false;
    }

    Header h{};
    r.pos = 0;
    if (!r.pull(&h, sizeof(h)) || data.size() - r.pos < h.keyLen) {
        if (why)
            *why = "truncated header";
        return false;
    }
    const std::uint64_t sum =
        stableHash64(data.data() + sizeof(h), data.size() - sizeof(h));
    if (sum != h.checksum) {
        if (why)
            *why = "checksum mismatch (truncated or corrupted)";
        return false;
    }
    std::string key(data.data() + r.pos, h.keyLen);
    r.pos += h.keyLen;
    if (expected_key && key != *expected_key) {
        if (why)
            *why = "generation-parameter key mismatch";
        return false;
    }
    return parseOps(r, h.threadCount, out, why);
}

} // namespace

void
saveTrace(const TraceSet &traces, const std::string &path,
          const std::string &key)
{
    File f(std::fopen(path.c_str(), "wb"));
    fatal_if(!f, "cannot open '", path, "' for writing");
    const std::string image = serializeFile(traces, key);
    fatal_if(std::fwrite(image.data(), 1, image.size(), f.get()) !=
                 image.size(),
             "short write to '", path, "'");
}

TraceSet
loadTrace(const std::string &path)
{
    std::string data;
    fatal_if(!readWholeFile(path, data), "cannot open '", path,
             "' for reading");
    TraceSet out;
    std::string why;
    fatal_if(!parseTrace(data, nullptr, out, &why), "'", path, "': ",
             why);
    return out;
}

bool
saveTraceAtomic(const TraceSet &traces, const std::string &path,
                const std::string &key)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    File f(std::fopen(tmp.c_str(), "wb"));
    if (!f) {
        warn("trace cache: cannot open '", tmp, "' for writing");
        return false;
    }
    const std::string image = serializeFile(traces, key);
    bool ok =
        std::fwrite(image.data(), 1, image.size(), f.get()) ==
        image.size();
    ok = ok && std::fflush(f.get()) == 0;
    ok = ok && ::fsync(::fileno(f.get())) == 0;
    f.reset();
    ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        warn("trace cache: failed to write '", path, "'");
        std::remove(tmp.c_str());
    }
    return ok;
}

bool
tryLoadTraceForKey(const std::string &path,
                   const std::string &expected_key, TraceSet &out,
                   std::string *why)
{
    std::string data;
    if (!readWholeFile(path, data)) {
        if (why)
            *why = "cannot read file";
        return false;
    }
    return parseTrace(data, &expected_key, out, why);
}

} // namespace asap
