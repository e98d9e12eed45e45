#include "common/error.hh"

#include <cstdarg>
#include <cstdio>

namespace elfsim {

std::string
errorf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (n > 0) {
        out.resize(std::size_t(n) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args);
        out.resize(std::size_t(n));
    }
    va_end(args);
    return out;
}

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
    }
    return "unknown";
}

bool
parseJobStatus(std::string_view name, JobStatus &out)
{
    for (JobStatus s : {JobStatus::Ok, JobStatus::Failed}) {
        if (name == jobStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

} // namespace elfsim
