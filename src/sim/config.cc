#include "sim/config.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "sim/log.hh"

namespace asap
{

namespace
{

/** Parse @p val into the unsigned @p field, fatal unless
 *  tryParseUnsigned() accepts it. */
template <typename T>
void
parseValue(const std::string &key, const std::string &val, T &field)
{
    fatal_if(!tryParseUnsigned(val, field), "config key '", key,
             "' wants an unsigned integer of at most ",
             std::numeric_limits<T>::max(), ", not '", val, "'");
}

/** As above for a non-negative, finite real (@p field). */
void
parseValue(const std::string &key, const std::string &val, double &field)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(val.c_str(), &end);
    const bool starts_number =
        !val.empty() &&
        (std::isdigit(static_cast<unsigned char>(val[0])) || val[0] == '.');
    fatal_if(!starts_number || end != val.c_str() + val.size() ||
                 errno == ERANGE || !std::isfinite(v),
             "config key '", key, "' wants a non-negative number, not '",
             val, "'");
    field = v;
}

} // namespace

bool
tryParseUnsigned(const std::string &text, std::uint64_t max,
                 std::uint64_t &out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (end != text.c_str() + text.size() || errno == ERANGE || v > max)
        return false;
    out = v;
    return true;
}

bool
tryParseModelKind(const std::string &name, ModelKind &out)
{
    if (name == "baseline")
        out = ModelKind::Baseline;
    else if (name == "hops")
        out = ModelKind::Hops;
    else if (name == "asap")
        out = ModelKind::Asap;
    else if (name == "eadr" || name == "bbb" || name == "ideal")
        out = ModelKind::Eadr;
    else
        return false;
    return true;
}

bool
tryParsePersistencyModel(const std::string &name, PersistencyModel &out)
{
    if (name == "ep" || name == "epoch")
        out = PersistencyModel::Epoch;
    else if (name == "rp" || name == "release")
        out = PersistencyModel::Release;
    else
        return false;
    return true;
}

ModelKind
parseModelKind(const std::string &name)
{
    ModelKind kind = ModelKind::Asap;
    if (!tryParseModelKind(name, kind))
        fatal("unknown model '", name,
              "' (want baseline|hops|asap|eadr)");
    return kind;
}

PersistencyModel
parsePersistencyModel(const std::string &name)
{
    PersistencyModel pm = PersistencyModel::Release;
    if (!tryParsePersistencyModel(name, pm))
        fatal("unknown persistency model '", name, "' (want ep|rp)");
    return pm;
}

std::string
toString(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Baseline: return "baseline";
      case ModelKind::Hops: return "hops";
      case ModelKind::Asap: return "asap";
      case ModelKind::Eadr: return "eadr";
    }
    return "?";
}

std::string
toString(PersistencyModel pm)
{
    return pm == PersistencyModel::Epoch ? "ep" : "rp";
}

void
SimConfig::override(const std::string &assignment)
{
    auto eq = assignment.find('=');
    fatal_if(eq == std::string::npos, "override '", assignment,
             "' is not key=value");
    const std::string key = assignment.substr(0, eq);
    const std::string val = assignment.substr(eq + 1);
    auto set = [&](auto &field) { parseValue(key, val, field); };

    if (key == "media" || key == "mediaProfile") mediaProfile = val;
    else if (key == "mediaPerMc") mediaPerMc = val;
    else if (key == "mediaReadLatency") set(mediaReadLatency);
    else if (key == "mediaWriteLatency") set(mediaWriteLatency);
    else if (key == "mediaBanks") set(mediaBanks);
    else if (key == "mediaWriteGBps") set(mediaWriteGBps);
    else if (key == "numCores") set(numCores);
    else if (key == "numMCs") set(numMCs);
    else if (key == "model") model = parseModelKind(val);
    else if (key == "persistency") persistency = parsePersistencyModel(val);
    else if (key == "l1Latency") set(l1Latency);
    else if (key == "l2Latency") set(l2Latency);
    else if (key == "llcLatency") set(llcLatency);
    else if (key == "cacheToCacheLatency") set(cacheToCacheLatency);
    else if (key == "l1Sets") set(l1Sets);
    else if (key == "l1Ways") set(l1Ways);
    else if (key == "l2Sets") set(l2Sets);
    else if (key == "l2Ways") set(l2Ways);
    else if (key == "llcSets") set(llcSets);
    else if (key == "llcWays") set(llcWays);
    else if (key == "pbEntries") set(pbEntries);
    else if (key == "etEntries") set(etEntries);
    else if (key == "rtEntries") set(rtEntries);
    else if (key == "wpqEntries") set(wpqEntries);
    else if (key == "wpqCombineWindow") set(wpqCombineWindow);
    else if (key == "nvmBanks") set(nvmBanks);
    else if (key == "interleaveBytes") set(interleaveBytes);
    else if (key == "dramLatency") set(dramLatency);
    else if (key == "pmReadLatency") set(pmReadLatency);
    else if (key == "pmWriteLatency") set(pmWriteLatency);
    else if (key == "pbFlushLatency") set(pbFlushLatency);
    else if (key == "pbMaxInflight") set(pbMaxInflight);
    else if (key == "clwbMaxInflight") set(clwbMaxInflight);
    else if (key == "mcMessageLatency") set(mcMessageLatency);
    else if (key == "interCoreLatency") set(interCoreLatency);
    else if (key == "hopsPollPeriod") set(hopsPollPeriod);
    else if (key == "hopsPollCost") set(hopsPollCost);
    else if (key == "eadrDfenceCost") set(eadrDfenceCost);
    else if (key == "seed") set(seed);
    else if (key == "maxRunTicks") set(maxRunTicks);
    else if (key == "xpBufferLines") set(xpBufferLines);
    else if (key == "xpBufferHitLatency") set(xpBufferHitLatency);
    else
        fatal("unknown config key '", key, "'");
}

} // namespace asap
