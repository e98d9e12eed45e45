/**
 * @file
 * Error/status reporting helpers.
 *
 * panic() is for simulator bugs (aborts); warn() prints status without
 * stopping. User errors are typed exceptions (common/error.hh).
 *
 * Recoverable mode: a sweep worker running an isolated grid cell can
 * enable the thread-local "throws" mode (setPanicThrows), after which
 * panic() raises InternalError instead of killing the process — the
 * sweep engine catches the exception, marks the one cell failed, and
 * the rest of the grid survives. When the mode is off (the default,
 * and everywhere outside sweep jobs) panic() still aborts, after
 * flushing and printing a best-effort backtrace so CI logs of
 * non-recoverable crashes are diagnosable.
 */

#ifndef ELFSIM_COMMON_LOGGING_HH
#define ELFSIM_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace elfsim {

/**
 * Enable/disable the thread-local recoverable-error mode (see file
 * comment). Returns the previous setting so scopes can nest; prefer
 * the RAII ScopedRecoverableErrors below.
 */
bool setPanicThrows(bool enable);

/** Is the calling thread in recoverable-error mode? */
bool panicThrows();

/** RAII: recoverable-error mode for the enclosing scope. */
class ScopedRecoverableErrors
{
  public:
    ScopedRecoverableErrors() : prev(setPanicThrows(true)) {}
    ~ScopedRecoverableErrors() { setPanicThrows(prev); }
    ScopedRecoverableErrors(const ScopedRecoverableErrors &) = delete;
    ScopedRecoverableErrors &
    operator=(const ScopedRecoverableErrors &) = delete;

  private:
    bool prev;
};

/** Print a formatted message and abort(); use for simulator bugs.
 *  In recoverable mode, throws InternalError instead. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...);

/** Print a formatted warning to stderr. */
void warnImpl(const char *fmt, ...);

} // namespace elfsim

#define ELFSIM_PANIC(...) \
    ::elfsim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

#define ELFSIM_WARN(...) ::elfsim::warnImpl(__VA_ARGS__)

/** Panic with a formatted message if a simulator invariant fails. */
#define ELFSIM_ASSERT(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::elfsim::warnImpl("assertion (" #cond ") failed");           \
            ::elfsim::panicImpl(__FILE__, __LINE__, __VA_ARGS__);         \
        }                                                                 \
    } while (0)

#endif // ELFSIM_COMMON_LOGGING_HH
