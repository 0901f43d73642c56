/**
 * @file
 * Shared environment-variable backend dispatch.
 *
 * Every runtime choice knob in this repo follows the same contract
 * (`FOCUS_MATH_BACKEND`, `FOCUS_OBS`, `FOCUS_LOG`): an unset or empty
 * variable selects the default, a known name selects that choice, and
 * an unknown name panics loudly listing the valid choices — a typo
 * must never silently fall back to the default.  The numeric
 * `FOCUS_THREADS` (runtime/thread_pool.cc) keeps the same rule: unset
 * or empty is the default, garbage is fatal.
 */

#ifndef FOCUS_COMMON_ENV_DISPATCH_H
#define FOCUS_COMMON_ENV_DISPATCH_H

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"

namespace focus
{

/**
 * Resolve the environment variable @p env_name against @p names (an
 * array of @p count backend names).  Returns @p fallback when the
 * variable is unset or empty, the matching index otherwise; panics on
 * an unrecognized value.
 */
inline int
envBackendChoice(const char *env_name, const char *const *names,
                 int count, int fallback)
{
    const char *env = std::getenv(env_name);
    if (env == nullptr || *env == '\0') {
        return fallback;
    }
    for (int i = 0; i < count; ++i) {
        if (std::strcmp(env, names[i]) == 0) {
            return i;
        }
    }
    std::string expected;
    for (int i = 0; i < count; ++i) {
        if (i > 0) {
            expected += '|';
        }
        expected += names[i];
    }
    panic("%s: unknown backend '%s' (expected %s)", env_name, env,
          expected.c_str());
}

} // namespace focus

#endif // FOCUS_COMMON_ENV_DISPATCH_H
