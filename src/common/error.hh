/**
 * @file
 * Structured simulation errors.
 *
 * The panic() reporting in logging.hh kills the whole process,
 * which is the right behavior for a single run but destroys all
 * completed work when one cell of a 90-job sweep grid goes bad. This
 * header gives every failure a type, so the sweep engine can catch a
 * per-job error, record it as a failed cell on its RunResult, and
 * keep the rest of the grid running:
 *
 *   - ConfigError     user error (bad option, bad spec)
 *   - IoError         filesystem failure (export target, artifact)
 *   - ParseError      malformed JSON or artifact
 *   - InternalError   simulator invariant violation (recoverable
 *                     panic; see setPanicThrows in logging.hh)
 *
 * JobStatus is the per-cell outcome in the elfsim-results-v2 export
 * schema.
 */

#ifndef ELFSIM_COMMON_ERROR_HH
#define ELFSIM_COMMON_ERROR_HH

#include <stdexcept>
#include <string>
#include <string_view>

namespace elfsim {

/** Base of the typed error hierarchy. */
class SimError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

#define ELFSIM_DEFINE_ERROR(Name)                                      \
    class Name : public SimError                                       \
    {                                                                  \
      public:                                                          \
        using SimError::SimError;                                      \
    }

ELFSIM_DEFINE_ERROR(ConfigError);
ELFSIM_DEFINE_ERROR(IoError);
ELFSIM_DEFINE_ERROR(ParseError);
ELFSIM_DEFINE_ERROR(InternalError);

#undef ELFSIM_DEFINE_ERROR

/** printf-style formatting into a std::string (error messages). */
std::string errorf(const char *fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/**
 * Outcome of one sweep cell, exported as the "status" field of the
 * elfsim-results-v2 schema. A failed cell's metrics are absent
 * (zeroed) and "error" carries the detail.
 */
enum class JobStatus
{
    Ok,     ///< completed normally
    Failed, ///< threw (bad options, invariant violation, ...)
};

/** Stable schema name of a JobStatus ("ok", "failed"). */
const char *jobStatusName(JobStatus s);

/** Inverse of jobStatusName; returns false on an unknown name. */
bool parseJobStatus(std::string_view name, JobStatus &out);

} // namespace elfsim

#endif // ELFSIM_COMMON_ERROR_HH
