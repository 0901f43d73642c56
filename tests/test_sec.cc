/**
 * @file
 * Tests for the Semantic Concentrator: importance analysis, top-k
 * selection (exact and streaming-sorter emulation), and the offset
 * encoding model of tests/reference/offset_encoding.h.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "focus/sec.h"
#include "reference/offset_encoding.h"

namespace focus
{
namespace
{

using reference::OffsetEncoding;
using reference::decodeOffsets;
using reference::encodeOffsets;

TEST(SecImportance, MaxOverTextRowsAndHeads)
{
    // 2 image tokens, 2 text tokens, 2 heads; hand-built maps.
    const int64_t m = 2, t = 2, total = m + t;
    Tensor h0(total, total), h1(total, total);
    // Text rows are 2 and 3; image columns are 0 and 1.
    h0(2, 0) = 0.3f;
    h0(3, 0) = 0.1f;
    h0(2, 1) = 0.05f;
    h1(3, 1) = 0.6f;
    h1(2, 0) = 0.2f;
    const auto imp = secImportance({h0, h1}, m, t);
    ASSERT_EQ(imp.size(), 2u);
    EXPECT_FLOAT_EQ(imp[0], 0.3f);
    EXPECT_FLOAT_EQ(imp[1], 0.6f);
}

TEST(SecImportance, IgnoresImageToImageBlock)
{
    const int64_t m = 2, t = 1;
    Tensor h(m + t, m + t);
    h(0, 1) = 0.99f; // image-to-image; must not count
    h(2, 1) = 0.10f;
    const auto imp = secImportance({h}, m, t);
    EXPECT_FLOAT_EQ(imp[0], 0.0f);
    EXPECT_FLOAT_EQ(imp[1], 0.10f);
}

TEST(SecTopK, SelectsLargestAscending)
{
    const std::vector<float> imp = {0.1f, 0.9f, 0.5f, 0.7f, 0.2f};
    const auto idx = secTopK(imp, 3);
    EXPECT_EQ(idx, (std::vector<int64_t>{1, 2, 3}));
}

TEST(SecTopK, KGreaterThanMReturnsAll)
{
    const std::vector<float> imp = {0.3f, 0.2f};
    const auto idx = secTopK(imp, 10);
    EXPECT_EQ(idx, (std::vector<int64_t>{0, 1}));
}

TEST(SecTopK, TieBreaksTowardLowerIndex)
{
    const std::vector<float> imp = {0.5f, 0.5f, 0.5f, 0.5f};
    const auto idx = secTopK(imp, 2);
    EXPECT_EQ(idx, (std::vector<int64_t>{0, 1}));
}

class StreamingTopKTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t, int64_t>>
{
};

TEST_P(StreamingTopKTest, MatchesExactTopK)
{
    const auto [lanes, m, k] = GetParam();
    Rng rng(static_cast<uint64_t>(lanes * 1000 + k));
    std::vector<float> imp(static_cast<size_t>(m));
    for (auto &v : imp) {
        v = static_cast<float>(rng.uniform());
    }
    StreamingTopK sorter(lanes, k);
    const auto got = sorter.select(imp);
    const auto want = secTopK(imp, k);
    EXPECT_EQ(got, want);
}

TEST_P(StreamingTopKTest, CycleCountIsPassesTimesM)
{
    const auto [lanes, m, k] = GetParam();
    if (k >= m) {
        GTEST_SKIP();
    }
    std::vector<float> imp(static_cast<size_t>(m), 0.5f);
    StreamingTopK sorter(lanes, k);
    sorter.select(imp);
    const uint64_t passes = static_cast<uint64_t>((k + lanes - 1) /
                                                  lanes);
    EXPECT_EQ(sorter.cycles(), passes * static_cast<uint64_t>(m));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamingTopKTest,
    ::testing::Values(std::make_tuple(4, 100, 10),
                      std::make_tuple(32, 800, 320),
                      std::make_tuple(32, 800, 80),
                      std::make_tuple(8, 64, 64),
                      std::make_tuple(1, 50, 7),
                      std::make_tuple(32, 1000, 1)));

TEST(StreamingTopK, DuplicateValuesStillExactSet)
{
    Rng rng(5);
    std::vector<float> imp(200);
    for (auto &v : imp) {
        // Few distinct values -> many ties.
        v = static_cast<float>(rng.uniformInt(5)) * 0.1f;
    }
    StreamingTopK sorter(16, 50);
    EXPECT_EQ(sorter.select(imp), secTopK(imp, 50));
}

// ---------------------------------------------------------------
// Offset encoding
// ---------------------------------------------------------------

TEST(OffsetEncoding, RoundTripSimple)
{
    const std::vector<int64_t> retained = {0, 3, 4, 10, 500};
    const auto enc = encodeOffsets(retained);
    EXPECT_EQ(decodeOffsets(enc), retained);
}

TEST(OffsetEncoding, FirstTokenZeroHasOffsetOne)
{
    const auto enc = encodeOffsets({0});
    ASSERT_EQ(enc.offsets.size(), 1u);
    EXPECT_EQ(enc.offsets[0], 1u);
}

TEST(OffsetEncoding, HugeGapsUseEscapes)
{
    const std::vector<int64_t> retained = {5, 5 + 200000};
    const auto enc = encodeOffsets(retained);
    EXPECT_GT(enc.offsets.size(), 2u); // escapes present
    EXPECT_EQ(decodeOffsets(enc), retained);
}

TEST(OffsetEncoding, ExactEscapeMultipleGap)
{
    const int64_t gap = static_cast<int64_t>(
        OffsetEncoding::kEscape) * 2;
    const std::vector<int64_t> retained = {7, 7 + gap};
    EXPECT_EQ(decodeOffsets(encodeOffsets(retained)), retained);
}

TEST(OffsetEncoding, PropertyRandomSets)
{
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<int64_t> retained;
        int64_t pos = -1;
        const int n = 1 + static_cast<int>(rng.uniformInt(100));
        for (int i = 0; i < n; ++i) {
            pos += 1 + static_cast<int64_t>(rng.uniformInt(100000));
            retained.push_back(pos);
        }
        EXPECT_EQ(decodeOffsets(encodeOffsets(retained)), retained);
    }
}

TEST(OffsetEncoding, ByteSizeIsTwoPerEntry)
{
    const auto enc = encodeOffsets({1, 2, 3});
    EXPECT_EQ(enc.byteSize(), 6u);
}

} // namespace
} // namespace focus
