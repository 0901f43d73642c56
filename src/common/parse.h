/**
 * @file
 * Strict numeric parsing for user inputs (argv, environment knobs).
 *
 * One rule for every count a user types: plain decimal digits, in
 * range, or a fatal() that names the input.  A typo must never fall
 * back silently to a default (`abc` -> 1 sample), keep a prefix
 * (`--threads=4x` -> 4) or wrap (`--requests=4294967297` -> 1).
 */

#ifndef FOCUS_COMMON_PARSE_H
#define FOCUS_COMMON_PARSE_H

#include <cctype>
#include <cerrno>
#include <climits>
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

} // namespace focus

#endif // FOCUS_COMMON_PARSE_H
