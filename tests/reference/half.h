/**
 * @file
 * Reference float -> binary16 conversion: the readable, branch-per-case
 * RNE conversion the production converter (common/half.h
 * floatToHalfBitsFast, behind `Half` and `fp16Round`) is checked
 * against in tests/test_half.cc.
 */

#ifndef FOCUS_TESTS_REFERENCE_HALF_H
#define FOCUS_TESTS_REFERENCE_HALF_H

#include <cstdint>

#include "common/half.h"

namespace focus
{
namespace reference
{

/**
 * Convert a float to binary16 bits with round-to-nearest-even, one
 * IEEE case at a time.
 *
 * Handles normals, subnormals, infinities and NaN.  Overflow saturates
 * to infinity, matching IEEE default rounding behaviour.
 */
inline uint16_t
floatToHalfBits(float value)
{
    const uint32_t bits = detail::floatBits(value);
    const uint32_t sign = (bits >> 16) & 0x8000u;
    uint32_t exp = (bits >> 23) & 0xffu;
    uint32_t mant = bits & 0x7fffffu;

    if (exp == 0xffu) {
        // Inf or NaN: preserve NaN-ness with a quiet bit.
        const uint16_t nan_payload = mant ? 0x0200u : 0x0000u;
        return static_cast<uint16_t>(sign | 0x7c00u | nan_payload |
                                     (mant >> 13));
    }

    // Re-bias 127 -> 15.
    int half_exp = static_cast<int>(exp) - 127 + 15;

    if (half_exp >= 0x1f) {
        // Overflow -> infinity.
        return static_cast<uint16_t>(sign | 0x7c00u);
    }

    if (half_exp <= 0) {
        // Subnormal half (or underflow to zero).
        if (half_exp < -10) {
            return static_cast<uint16_t>(sign);
        }
        // Add implicit leading 1, then shift into subnormal position.
        mant |= 0x800000u;
        const int shift = 14 - half_exp;
        const uint32_t sub = mant >> shift;
        const uint32_t rem = mant & ((1u << shift) - 1);
        const uint32_t half_bit = 1u << (shift - 1);
        uint32_t rounded = sub;
        if (rem > half_bit || (rem == half_bit && (sub & 1u))) {
            rounded += 1;
        }
        return static_cast<uint16_t>(sign | rounded);
    }

    // Normal half: round 23-bit mantissa to 10 bits (RNE).
    uint32_t half_mant = mant >> 13;
    const uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half_mant & 1u))) {
        half_mant += 1;
        if (half_mant == 0x400u) {
            half_mant = 0;
            half_exp += 1;
            if (half_exp >= 0x1f) {
                return static_cast<uint16_t>(sign | 0x7c00u);
            }
        }
    }
    return static_cast<uint16_t>(
        sign | (static_cast<uint32_t>(half_exp) << 10) | half_mant);
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_HALF_H
