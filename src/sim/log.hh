/**
 * @file
 * Status and error reporting, following the gem5 panic/fatal/warn/inform
 * convention.
 *
 *  - panic():  a simulator bug; aborts.
 *  - fatal():  a user/configuration error; exits with an error code.
 *  - warn():   suspicious but survivable condition.
 *  - inform(): plain status output.
 */

#ifndef ASAP_SIM_LOG_HH
#define ASAP_SIM_LOG_HH

#include <sstream>
#include <string>

namespace asap
{

/** Severity levels understood by logMessage(). */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * Emit a log message; Fatal exits, Panic aborts.
 *
 * @param level severity of the message
 * @param where "file:line" the message originates from
 * @param msg   preformatted message text
 */
[[gnu::cold]] void logMessage(LogLevel level, const char *where,
                              const std::string &msg);

/** Silence warn()/inform() output (used by tests and benches). */
void setLogQuiet(bool quiet);

namespace log_detail
{

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace log_detail

#define ASAP_LOG_STRINGIFY2(x) #x
#define ASAP_LOG_STRINGIFY(x) ASAP_LOG_STRINGIFY2(x)
#define ASAP_LOG_WHERE __FILE__ ":" ASAP_LOG_STRINGIFY(__LINE__)

/** Report a simulator bug and abort. */
#define panic(...)                                                         \
    ::asap::logMessage(::asap::LogLevel::Panic, ASAP_LOG_WHERE,            \
                       ::asap::log_detail::format(__VA_ARGS__))

/** Report an unrecoverable user error and exit(1). */
#define fatal(...)                                                         \
    ::asap::logMessage(::asap::LogLevel::Fatal, ASAP_LOG_WHERE,            \
                       ::asap::log_detail::format(__VA_ARGS__))

/** Report a suspicious condition; continues. */
#define warn(...)                                                          \
    ::asap::logMessage(::asap::LogLevel::Warn, ASAP_LOG_WHERE,             \
                       ::asap::log_detail::format(__VA_ARGS__))

/** Report simulation status; continues. */
#define inform(...)                                                        \
    ::asap::logMessage(::asap::LogLevel::Inform, ASAP_LOG_WHERE,           \
                       ::asap::log_detail::format(__VA_ARGS__))

/** panic() if a required invariant does not hold. */
#define panic_if(cond, ...)                                                \
    do {                                                                   \
        if (cond)                                                          \
            panic(__VA_ARGS__);                                            \
    } while (0)

/** fatal() if a user-facing precondition does not hold. */
#define fatal_if(cond, ...)                                                \
    do {                                                                   \
        if (cond)                                                          \
            fatal(__VA_ARGS__);                                            \
    } while (0)

} // namespace asap

#endif // ASAP_SIM_LOG_HH
