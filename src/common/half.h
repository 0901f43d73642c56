/**
 * @file
 * IEEE-754 binary16 (half precision) emulation.
 *
 * The functional model of the accelerator operates on FP16 activations
 * with FP32 accumulation, matching the paper's PE configuration
 * ("FP16 Mul FP32 Acc", Tbl. I).  This header provides a storage type
 * with round-to-nearest-even conversions and float-backed arithmetic,
 * plus the fp16 conversion path of the serving prefix cache
 * (serve/prefix_cache.h):
 *
 *  - floatToHalfBitsFast: a branch-light integer-only conversion
 *    (RNE), the one float -> binary16 path: `Half`, `fp16Round` (GEMM
 *    packing, `Tensor::roundToFp16`) and the prefix cache all use it.
 *    It is bit-exact to the readable reference conversion kept in
 *    tests/reference/half.h for every input, NaN payload and
 *    subnormal rounding included: tests/test_half.cc checks all
 *    binary16 patterns, the boundary bands and a strided full-range
 *    sweep, and an exhaustive run over all 2^32 inputs agreed once
 *    (EXPERIMENTS.md, "fp16 converter").
 *  - floatToHalfN: batch conversion over a contiguous span.
 */

#ifndef FOCUS_COMMON_HALF_H
#define FOCUS_COMMON_HALF_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

namespace focus
{

namespace detail
{

/** Bit-exact float -> uint32 reinterpretation. */
inline uint32_t
floatBits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Bit-exact uint32 -> float reinterpretation. */
inline float
bitsFloat(uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

} // namespace detail

/**
 * Fast float -> binary16 conversion (round-to-nearest-even).
 *
 * Pure integer pipeline with the float's magnitude classified once
 * against three thresholds; the normal-range path folds exponent
 * re-bias and RNE rounding (carry into the exponent included) into a
 * single add-and-shift, the F16C-style hot path.  Overflow saturates
 * to infinity, subnormals round to nearest even, and NaN keeps its
 * truncated payload plus the quiet bit — bit-exact to the reference
 * conversion in tests/reference/half.h on every input.
 */
inline uint16_t
floatToHalfBitsFast(float value)
{
    const uint32_t bits = detail::floatBits(value);
    const uint32_t sign = (bits >> 16) & 0x8000u;
    const uint32_t abs = bits & 0x7fffffffu;

    uint32_t out;
    if (abs >= 0x7f800000u) {
        // Inf stays inf; NaN keeps its truncated payload plus the
        // quiet bit (0x0200), matching the reference exactly.
        out = abs > 0x7f800000u
            ? (0x7e00u | ((abs & 0x7fffffu) >> 13))
            : 0x7c00u;
    } else if (abs >= 0x47800000u) {
        // Magnitude at or above 2^16: saturate to infinity.
        out = 0x7c00u;
    } else if (abs >= 0x38800000u) {
        // Normal half: subtract the bias difference (112 << 23) so a
        // plain shift yields exponent|mantissa, then add the RNE
        // increment — 0xfff plus the kept lsb — before shifting; a
        // mantissa carry rolls into the exponent (and, right at the
        // top of the range, into the correct saturation to inf).
        const uint32_t v = abs - 0x38000000u;
        out = (v + 0xfffu + ((v >> 13) & 1u)) >> 13;
    } else if (abs >= 0x33000000u) {
        // Subnormal half: shift the implicit-1 mantissa into the
        // subnormal position, rounding the remainder to nearest even.
        const uint32_t shift = 126u - (abs >> 23);
        const uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
        const uint32_t sub = mant >> shift;
        const uint32_t rem = mant & ((1u << shift) - 1u);
        const uint32_t half_bit = 1u << (shift - 1u);
        out = sub +
            ((rem > half_bit || (rem == half_bit && (sub & 1u)))
                 ? 1u
                 : 0u);
    } else {
        // Below half the smallest subnormal: flush to signed zero.
        out = 0;
    }
    return static_cast<uint16_t>(sign | out);
}

/** Convert binary16 bits to float (exact). */
inline float
halfBitsToFloat(uint16_t h)
{
    const uint32_t sign = (static_cast<uint32_t>(h) & 0x8000u) << 16;
    uint32_t exp = (h >> 10) & 0x1fu;
    uint32_t mant = h & 0x3ffu;

    if (exp == 0) {
        if (mant == 0) {
            return detail::bitsFloat(sign);
        }
        // Subnormal: normalize.
        int shift = 0;
        while ((mant & 0x400u) == 0) {
            mant <<= 1;
            ++shift;
        }
        mant &= 0x3ffu;
        const uint32_t fexp = 127 - 15 - shift + 1;
        return detail::bitsFloat(sign | (fexp << 23) | (mant << 13));
    }
    if (exp == 0x1fu) {
        return detail::bitsFloat(sign | 0x7f800000u | (mant << 13));
    }
    const uint32_t fexp = exp - 15 + 127;
    return detail::bitsFloat(sign | (fexp << 23) | (mant << 13));
}

/**
 * Half-precision storage type.
 *
 * Arithmetic promotes to float; assignment rounds back to binary16.
 * This mirrors an FP16 datapath with higher-precision intermediate
 * computation.
 */
class Half
{
  public:
    Half() : bits_(0) {}
    explicit Half(float f) : bits_(floatToHalfBitsFast(f)) {}

    /** Construct directly from raw binary16 bits. */
    static Half
    fromBits(uint16_t b)
    {
        Half h;
        h.bits_ = b;
        return h;
    }

    /** Raw binary16 bit pattern. */
    uint16_t bits() const { return bits_; }

    /** Exact widening conversion. */
    float toFloat() const { return halfBitsToFloat(bits_); }

    operator float() const { return toFloat(); }

    /** Sign bit, used by the AdapTiV sign-similarity baseline. */
    bool signBit() const { return (bits_ & 0x8000u) != 0; }

    Half &
    operator+=(Half o)
    {
        *this = Half(toFloat() + o.toFloat());
        return *this;
    }

    bool operator==(const Half &o) const { return bits_ == o.bits_; }
    bool operator!=(const Half &o) const { return bits_ != o.bits_; }

  private:
    uint16_t bits_;
};

/** Round-trip a float through binary16 precision. */
inline float
fp16Round(float f)
{
    return halfBitsToFloat(floatToHalfBitsFast(f));
}

/**
 * Batch float -> binary16 over a contiguous span through the fast
 * scalar kernel; n == 0 is a no-op, so callers need no empty-span
 * guards.
 */
inline void
floatToHalfN(const float *src, uint16_t *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = floatToHalfBitsFast(src[i]);
    }
}

} // namespace focus

#endif // FOCUS_COMMON_HALF_H
