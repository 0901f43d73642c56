/**
 * @file
 * Strict numeric parsing for user inputs (argv, environment knobs).
 *
 * One rule for every number a user types: well formed, in range, or
 * a fatal() that names the input.  A typo must never fall back
 * silently to a default (`abc` -> 1 sample), keep a prefix
 * (`--threads=4x` -> 4), wrap (`--requests=4294967297` -> 1) or
 * overflow into a non-number (`--arrival-rate=1e999` -> inf).
 */

#ifndef FOCUS_COMMON_PARSE_H
#define FOCUS_COMMON_PARSE_H

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/logging.h"

namespace focus
{

/**
 * Parse @p text as a positive int: decimal digits only (no sign,
 * whitespace or suffix), value in [1, INT_MAX].  Anything else exits
 * through fatal() with "<what>='<text>' is not a positive integer",
 * where @p what names the input (a flag, a variable, "sample count").
 */
inline int
parsePositiveInt(const char *text, const char *what)
{
    const char *s = text != nullptr ? text : "";
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
        errno == ERANGE || v < 1 || v > INT_MAX) {
        fatal("%s='%s' is not a positive integer", what, s);
    }
    return static_cast<int>(v);
}

/**
 * Parse @p text as a non-negative index: decimal digits only (no
 * sign, whitespace or suffix), value in [0, UINT64_MAX].  Anything
 * else exits through fatal() with "<what>='<text>' is not a
 * non-negative integer".
 */
inline uint64_t
parseIndex(const char *text, const char *what)
{
    const char *s = text != nullptr ? text : "";
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
        errno == ERANGE) {
        fatal("%s='%s' is not a non-negative integer", what, s);
    }
    return static_cast<uint64_t>(v);
}

/**
 * Parse @p text as a finite positive number: strtod syntax starting
 * with a digit or '.' (no sign, whitespace or suffix).  `inf`, `nan`,
 * zero and values that overflow or underflow a double exit through
 * fatal() with "<what>='<text>' is not a finite positive number".
 */
inline double
parsePositiveDouble(const char *text, const char *what)
{
    const char *s = text != nullptr ? text : "";
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    const unsigned char c0 = static_cast<unsigned char>(*s);
    if (!(std::isdigit(c0) || c0 == '.') || *end != '\0' ||
        errno == ERANGE || !std::isfinite(v) || !(v > 0.0)) {
        fatal("%s='%s' is not a finite positive number", what, s);
    }
    return v;
}

} // namespace focus

#endif // FOCUS_COMMON_PARSE_H
