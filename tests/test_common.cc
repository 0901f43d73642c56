/**
 * @file
 * Unit tests for the common substrate: Half, Rng, stats, math utils,
 * strict input parsing.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <set>

#include "common/half.h"
#include "common/math_util.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "reference/stat_set.h"

namespace focus
{
namespace
{

// ---------------------------------------------------------------
// Half
// ---------------------------------------------------------------

TEST(Half, ZeroRoundTrips)
{
    EXPECT_EQ(Half(0.0f).toFloat(), 0.0f);
    EXPECT_EQ(Half(-0.0f).bits(), 0x8000u);
}

TEST(Half, ExactSmallIntegers)
{
    for (int i = -2048; i <= 2048; ++i) {
        EXPECT_EQ(Half(static_cast<float>(i)).toFloat(),
                  static_cast<float>(i))
            << "integer " << i;
    }
}

TEST(Half, KnownBitPatterns)
{
    EXPECT_EQ(Half(1.0f).bits(), 0x3c00u);
    EXPECT_EQ(Half(-2.0f).bits(), 0xc000u);
    EXPECT_EQ(Half(0.5f).bits(), 0x3800u);
    EXPECT_EQ(Half(65504.0f).bits(), 0x7bffu); // max normal
}

TEST(Half, OverflowSaturatesToInfinity)
{
    EXPECT_EQ(Half(1e6f).bits(), 0x7c00u);
    EXPECT_EQ(Half(-1e6f).bits(), 0xfc00u);
    EXPECT_TRUE(std::isinf(Half(70000.0f).toFloat()));
}

TEST(Half, NanPreserved)
{
    const float nan = std::nanf("");
    EXPECT_TRUE(std::isnan(Half(nan).toFloat()));
}

TEST(Half, SubnormalsRepresentable)
{
    // Smallest positive subnormal half = 2^-24.
    const float tiny = std::ldexp(1.0f, -24);
    EXPECT_EQ(Half(tiny).bits(), 0x0001u);
    EXPECT_EQ(Half(tiny).toFloat(), tiny);
    // Underflow to zero below half of the smallest subnormal.
    EXPECT_EQ(Half(std::ldexp(1.0f, -26)).bits(), 0x0000u);
}

TEST(Half, RoundToNearestEven)
{
    // 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10);
    // RNE picks the even mantissa (1.0).
    const float midpoint = 1.0f + std::ldexp(1.0f, -11);
    EXPECT_EQ(Half(midpoint).bits(), Half(1.0f).bits());
    // 1 + 3*2^-11 is between odd and even; rounds up to even.
    const float mid2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
    EXPECT_EQ(Half(mid2).bits(),
              static_cast<uint16_t>(Half(1.0f).bits() + 2));
}

TEST(Half, RoundTripIsIdempotent)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const float v =
            static_cast<float>(rng.gaussian(0.0, 10.0));
        const float once = fp16Round(v);
        EXPECT_EQ(fp16Round(once), once);
    }
}

TEST(Half, SignBit)
{
    EXPECT_FALSE(Half(3.0f).signBit());
    EXPECT_TRUE(Half(-3.0f).signBit());
}

// ---------------------------------------------------------------
// Rng
// ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntUnbiasedRange)
{
    Rng rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 3000; ++i) {
        const uint64_t v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, ForkIndependentStreams)
{
    Rng parent(9);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += c1.next() == c2.next() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkDeterministic)
{
    Rng p1(9), p2(9);
    Rng a = p1.fork(5);
    Rng b = p2.fork(5);
    EXPECT_EQ(a.next(), b.next());
}

// ---------------------------------------------------------------
// Stats
// ---------------------------------------------------------------

TEST(Histogram, BinningAndCdf)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) {
        h.add(i + 0.5);
    }
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(h.binCount(i), 1u);
    }
    EXPECT_DOUBLE_EQ(h.cdfAt(4.4), 0.4);
    EXPECT_DOUBLE_EQ(h.cdfAt(100.0), 1.0);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(5.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
}

TEST(StatSet, IncrementAndMerge)
{
    reference::StatSet a, b;
    a.inc("x");
    a.inc("x", 2);
    b.inc("x", 10);
    b.inc("y");
    a.merge(b);
    EXPECT_EQ(a.get("x"), 13u);
    EXPECT_EQ(a.get("y"), 1u);
    EXPECT_EQ(a.get("z"), 0u);
    EXPECT_TRUE(a.has("y"));
    EXPECT_FALSE(a.has("z"));
}

// ---------------------------------------------------------------
// math_util
// ---------------------------------------------------------------

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv<int64_t>(1, 1024), 1);
}

TEST(MathUtil, Pow2Helpers)
{
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(48));
    EXPECT_FALSE(isPow2(0));
    EXPECT_EQ(log2Exact(1024), 10);
}

// ---------------------------------------------------------------
// parse
// ---------------------------------------------------------------

TEST(ParsePositiveInt, AcceptsPlainDecimal)
{
    EXPECT_EQ(parsePositiveInt("1", "sample count"), 1);
    EXPECT_EQ(parsePositiveInt("42", "--threads"), 42);
    EXPECT_EQ(parsePositiveInt("007", "--batch"), 7);
    EXPECT_EQ(parsePositiveInt("2147483647", "--requests"), INT_MAX);
}

TEST(ParsePositiveIntDeathTest, GarbageIsFatalAndNamesTheInput)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Each of these used to become a count silently: atoi turned
    // "abc"/"-5" into a clamped 1, "4x" into 4, and a 2^32+1 request
    // count wrapped to 1 through the int cast.
    for (const char *bad : {"", "abc", "0", "-5", "+2", " 4", "4x",
                            "2147483648", "4294967297",
                            "99999999999999999999"}) {
        EXPECT_EXIT(parsePositiveInt(bad, "--requests"),
                    testing::ExitedWithCode(1),
                    "--requests='.*' is not a positive integer")
            << "value '" << bad << "'";
    }
    EXPECT_EXIT(parsePositiveInt("abc", "sample count"),
                testing::ExitedWithCode(1),
                "sample count='abc' is not a positive integer");
}

TEST(ParseIndex, AcceptsZeroAndFullRange)
{
    EXPECT_EQ(parseIndex("0", "sample index"), 0u);
    EXPECT_EQ(parseIndex("3", "sample index"), 3u);
    EXPECT_EQ(parseIndex("18446744073709551615", "sample index"),
              UINT64_MAX);
}

TEST(ParseIndexDeathTest, GarbageIsFatalAndNamesTheInput)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // video_qa used to run sample 0 for "abc" and sample 2^64-1 for
    // "-1" (atoll, then a cast).
    for (const char *bad : {"", "abc", "-1", "+2", " 4", "4x", "1.5",
                            "18446744073709551616"}) {
        EXPECT_EXIT(parseIndex(bad, "sample index"),
                    testing::ExitedWithCode(1),
                    "sample index='.*' is not a non-negative integer")
            << "value '" << bad << "'";
    }
}

TEST(ParsePositiveDouble, AcceptsFinitePositiveNumbers)
{
    EXPECT_EQ(parsePositiveDouble("0.05", "--arrival-rate"), 0.05);
    EXPECT_EQ(parsePositiveDouble("2", "--arrival-rate"), 2.0);
    EXPECT_EQ(parsePositiveDouble(".5", "--arrival-rate"), 0.5);
    EXPECT_EQ(parsePositiveDouble("1e3", "--arrival-rate"), 1000.0);
}

TEST(ParsePositiveDoubleDeathTest, GarbageIsFatalAndNamesTheInput)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // "inf" and "1e999" used to pass as an infinite rate, which puts
    // every arrival at t = 0.
    for (const char *bad : {"", "abc", "0", "0.0", "-1", "+2", " 4",
                            "4x", "inf", "nan", "1e999", "1e-999"}) {
        EXPECT_EXIT(parsePositiveDouble(bad, "--arrival-rate"),
                    testing::ExitedWithCode(1),
                    "--arrival-rate='.*' is not a finite positive number")
            << "value '" << bad << "'";
    }
}

} // namespace
} // namespace focus
