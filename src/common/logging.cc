#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flashmem {

namespace {

/** Verbosity levels of FLASHMEM_LOG_LEVEL. */
enum class LogLevel { Silent, Error, Warn, Info, Debug };

/** FLASHMEM_LOG_LEVEL: silent|error|warn|info|debug (default warn,
 * so benches stay clean); unknown values fall back to warn with a
 * note, so a typo cannot silently mute diagnostics. */
LogLevel
levelFromEnv()
{
    // FMLINT(allow:no-wall-clock) getenv is process config, not time
    const char *env = std::getenv("FLASHMEM_LOG_LEVEL");
    if (!env || !*env)
        return LogLevel::Warn;
    if (!std::strcmp(env, "silent"))
        return LogLevel::Silent;
    if (!std::strcmp(env, "error"))
        return LogLevel::Error;
    if (!std::strcmp(env, "warn"))
        return LogLevel::Warn;
    if (!std::strcmp(env, "info"))
        return LogLevel::Info;
    if (!std::strcmp(env, "debug"))
        return LogLevel::Debug;
    std::fprintf(stderr,
                 "warn: FLASHMEM_LOG_LEVEL='%s' not recognized "
                 "(silent|error|warn|info|debug); using warn\n",
                 env);
    return LogLevel::Warn;
}

/** Function-local static so the env read happens on first use, not
 * at some unspecified static-init point. */
LogLevel
logLevel()
{
    static const LogLevel level = levelFromEnv();
    return level;
}

} // namespace

namespace detail {

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail
} // namespace flashmem
