#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flashmem {

namespace {

/** FLASHMEM_LOG_LEVEL: silent|warn (default warn). warn() is the
 * only leveled message, so these are the only two levels; any other
 * value falls back to warn with a note, so a typo cannot silently
 * mute diagnostics. */
bool
warningsFromEnv()
{
    // FMLINT(allow:no-wall-clock) getenv is process config, not time
    const char *env = std::getenv("FLASHMEM_LOG_LEVEL");
    if (!env || !*env || !std::strcmp(env, "warn"))
        return true;
    if (!std::strcmp(env, "silent"))
        return false;
    std::fprintf(stderr,
                 "warn: FLASHMEM_LOG_LEVEL='%s' not recognized "
                 "(silent|warn); using warn\n",
                 env);
    return true;
}

/** Function-local static so the env read happens on first use, not
 * at some unspecified static-init point. */
bool
warningsOn()
{
    static const bool on = warningsFromEnv();
    return on;
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
    if (warningsOn())
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail
} // namespace flashmem
