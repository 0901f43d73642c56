/**
 * @file
 * Small integer/float math helpers shared across modules.
 */

#ifndef FOCUS_COMMON_MATH_UTIL_H
#define FOCUS_COMMON_MATH_UTIL_H

#include <cstdint>
#include <type_traits>

namespace focus
{

/** Ceiling division for non-negative integers. */
template <typename T>
constexpr T
ceilDiv(T a, T b)
{
    static_assert(std::is_integral_v<T>);
    return (a + b - 1) / b;
}

/** Clamp @p v into [lo, hi]. */
template <typename T>
constexpr T
clamp(T v, T lo, T hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

} // namespace focus

#endif // FOCUS_COMMON_MATH_UTIL_H
