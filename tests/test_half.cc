/**
 * @file
 * Tests for the binary16 emulation in common/half.h: the reference
 * conversion (tests/reference/half.h) round-trips every binary16
 * pattern, and the production conversion (floatToHalfBitsFast, behind
 * `Half` and `fp16Round`) and its batch form are bit-exact to the
 * reference across the classification boundaries, a strided
 * full-range sweep and the special values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/half.h"
#include "reference/half.h"

namespace focus
{
namespace
{

using reference::floatToHalfBits;

// ---------------------------------------------------------------
// binary16
// ---------------------------------------------------------------

TEST(Half, AllPatternsRoundTripExactly)
{
    // Every non-NaN binary16 value widens to float and converts back
    // to the identical bit pattern; NaN stays NaN (payload may gain
    // the quiet bit, sign and NaN-ness are preserved).
    for (uint32_t b = 0; b <= 0xffffu; ++b) {
        const uint16_t h = static_cast<uint16_t>(b);
        const float f = halfBitsToFloat(h);
        const uint16_t back = floatToHalfBits(f);
        const bool is_nan =
            (h & 0x7c00u) == 0x7c00u && (h & 0x03ffu) != 0;
        if (is_nan) {
            EXPECT_TRUE(std::isnan(f));
            EXPECT_EQ(back & 0x7c00u, 0x7c00u);
            EXPECT_NE(back & 0x03ffu, 0u);
            EXPECT_EQ(back & 0x8000u, h & 0x8000u);
        } else {
            EXPECT_EQ(back, h) << "pattern 0x" << std::hex << b;
        }
    }
}

TEST(Half, FastMatchesReferenceOnBoundaryBands)
{
    // The fast path classifies by magnitude against three thresholds
    // (subnormal floor, normal floor, overflow) plus the inf/NaN
    // band; sweep a dense window around each, both signs.
    const uint32_t centers[] = {0x33000000u, 0x38800000u, 0x47800000u,
                                0x7f800000u};
    for (const uint32_t c : centers) {
        for (int64_t d = -65536; d <= 65536; ++d) {
            const uint32_t abs =
                static_cast<uint32_t>(static_cast<int64_t>(c) + d);
            for (const uint32_t sign : {0u, 0x80000000u}) {
                const float f = detail::bitsFloat(sign | abs);
                ASSERT_EQ(floatToHalfBitsFast(f), floatToHalfBits(f))
                    << "bits 0x" << std::hex << (sign | abs);
            }
        }
    }
}

TEST(Half, FastMatchesReferenceOnStridedSweepAndSpecials)
{
    // Coarse sweep of the whole uint32 space (coprime stride hits
    // every exponent) plus the exact special values.
    for (uint64_t b = 0; b <= 0xffffffffull; b += 251) {
        const float f = detail::bitsFloat(static_cast<uint32_t>(b));
        ASSERT_EQ(floatToHalfBitsFast(f), floatToHalfBits(f))
            << "bits 0x" << std::hex << b;
    }
    const uint32_t specials[] = {
        0x00000000u, 0x80000000u, // +-0
        0x00000001u, 0x807fffffu, // float subnormals
        0x7f800000u, 0xff800000u, // +-inf
        0x7f800001u, 0x7fc00000u, 0xffc00001u, // NaNs
        0x3f800000u, 0xbf800000u, // +-1
        0x477fe000u, 0x477ff000u, // just below half overflow
        0x38800000u - 1, 0x33000000u - 1,
    };
    for (const uint32_t b : specials) {
        const float f = detail::bitsFloat(b);
        EXPECT_EQ(floatToHalfBitsFast(f), floatToHalfBits(f))
            << "bits 0x" << std::hex << b;
    }
}

TEST(Half, KnownConversions)
{
    EXPECT_EQ(floatToHalfBits(1.0f), 0x3c00u);
    EXPECT_EQ(floatToHalfBits(-2.0f), 0xc000u);
    EXPECT_EQ(floatToHalfBits(65504.0f), 0x7bffu); // half max
    EXPECT_EQ(floatToHalfBits(65536.0f), 0x7c00u); // overflow -> inf
    EXPECT_EQ(floatToHalfBits(5.9604645e-8f), 0x0001u); // min subnorm
    // RNE: 1 + 1/2048 is exactly between 1.0 and 1 + 1/1024 -> even.
    EXPECT_EQ(floatToHalfBits(1.00048828125f), 0x3c00u);
}

// ---------------------------------------------------------------
// batch converters
// ---------------------------------------------------------------

TEST(BatchConvert, MatchesScalarKernel)
{
    std::vector<float> src;
    for (int i = -300; i < 300; ++i) {
        src.push_back(std::ldexp(1.0f + static_cast<float>(i & 7) / 8,
                                 i / 12));
        src.push_back(-src.back());
    }
    std::vector<uint16_t> h(src.size());
    floatToHalfN(src.data(), h.data(), src.size());
    for (size_t i = 0; i < src.size(); ++i) {
        EXPECT_EQ(h[i], floatToHalfBits(src[i]));
    }
    // n == 0 is a no-op (null pointers allowed).
    floatToHalfN(nullptr, nullptr, 0);
}

} // namespace
} // namespace focus
