#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

#include "common/error.hh"

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define ELFSIM_HAVE_BACKTRACE 1
#endif
#endif

namespace elfsim {

namespace {

thread_local bool panicThrowsFlag = false;

void
vreport(const char *prefix, const char *file, int line, const char *fmt,
        va_list args)
{
    std::fflush(stdout);
    if (file)
        std::fprintf(stderr, "%s: %s:%d: ", prefix, file, line);
    else
        std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

std::string
vformat(const char *prefix, const char *file, int line, const char *fmt,
        va_list args)
{
    char msg[1024];
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    return errorf("%s: %s:%d: %s", prefix, file, line, msg);
}

/** Best-effort raw stack dump straight to stderr (signal-safe-ish:
 *  backtrace_symbols_fd allocates nothing). No-op where execinfo.h is
 *  unavailable. */
void
dumpBacktrace()
{
#ifdef ELFSIM_HAVE_BACKTRACE
    void *frames[64];
    const int n = backtrace(frames, 64);
    if (n > 0) {
        std::fprintf(stderr, "backtrace (%d frames):\n", n);
        std::fflush(stderr);
        backtrace_symbols_fd(frames, n, /*stderr=*/2);
    }
#endif
}

} // namespace

bool
setPanicThrows(bool enable)
{
    const bool prev = panicThrowsFlag;
    panicThrowsFlag = enable;
    return prev;
}

bool
panicThrows()
{
    return panicThrowsFlag;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    if (panicThrowsFlag) {
        std::string msg = vformat("panic", file, line, fmt, args);
        va_end(args);
        throw InternalError(msg);
    }
    vreport("panic", file, line, fmt, args);
    va_end(args);
    dumpBacktrace();
    std::fflush(stderr);
    std::abort();
}

void
warnImpl(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("warn", nullptr, 0, fmt, args);
    va_end(args);
}

} // namespace elfsim
