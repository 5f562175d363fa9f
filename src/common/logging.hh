/**
 * @file
 * Status/error reporting in the gem5 style.
 *
 * fatal() is for user errors (bad configuration); panic() is for internal
 * invariant violations. Both terminate. warn()/inform() never terminate.
 */

#ifndef FLASHMEM_COMMON_LOGGING_HH
#define FLASHMEM_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace flashmem {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent, Error, Warn, Info, Debug };

/**
 * Set the process-wide verbosity. The initial level comes from the
 * FLASHMEM_LOG_LEVEL environment variable
 * (silent|error|warn|info|debug), defaulting to Warn so benches stay
 * clean; this setter overrides it for the rest of the process.
 */
void setLogLevel(LogLevel level);

/** Current process-wide verbosity. */
LogLevel logLevel();

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void errorImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Concatenate a parameter pack through an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Terminate on unrecoverable user error (bad config, invalid argument). */
template <typename... Args>
[[noreturn]] void
fatal(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line, detail::concat(std::forward<Args>(args)...));
}

/** Terminate on internal invariant violation (a FlashMem bug). */
template <typename... Args>
[[noreturn]] void
panic(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line, detail::concat(std::forward<Args>(args)...));
}

/** Non-fatal error report (survivable, but louder than a warning). */
template <typename... Args>
void
error(Args &&...args)
{
    detail::errorImpl(detail::concat(std::forward<Args>(args)...));
}

/** Non-fatal warning about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Informational progress message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Verbose diagnostic message, suppressed unless LogLevel::Debug. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    detail::debugImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace flashmem

#define FM_FATAL(...) ::flashmem::fatal(__FILE__, __LINE__, __VA_ARGS__)
#define FM_PANIC(...) ::flashmem::panic(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; always active (not tied to NDEBUG). */
#define FM_ASSERT(cond, ...)                                               \
    do {                                                                   \
        if (!(cond))                                                       \
            FM_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);       \
    } while (0)

#endif // FLASHMEM_COMMON_LOGGING_HH
