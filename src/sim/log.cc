#include "sim/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace asap
{

namespace
{

/** Atomic so concurrent sweep workers can toggle/read it racelessly. */
std::atomic<bool> quietLogs{false};

/** Serialises the actual stream writes: one message, one line. */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

/** The single write path; every emitted line goes through here. */
void
writeLine(const char *prefix, const std::string &msg, const char *where)
{
    std::lock_guard<std::mutex> lock(logMutex());
    if (where)
        std::fprintf(stderr, "%s: %s (%s)\n", prefix, msg.c_str(),
                     where);
    else
        std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

} // namespace

void
setLogQuiet(bool quiet)
{
    quietLogs.store(quiet, std::memory_order_relaxed);
}

void
logMessage(LogLevel level, const char *where, const std::string &msg)
{
    const bool quiet = quietLogs.load(std::memory_order_relaxed);
    switch (level) {
      case LogLevel::Inform:
        if (!quiet)
            writeLine("info", msg, nullptr);
        break;
      case LogLevel::Warn:
        if (!quiet)
            writeLine("warn", msg, where);
        break;
      case LogLevel::Fatal:
        writeLine("fatal", msg, where);
        std::exit(1);
      case LogLevel::Panic:
        writeLine("panic", msg, where);
        std::abort();
    }
}

} // namespace asap
