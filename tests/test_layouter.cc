/**
 * @file
 * Tests for the convolution-style layouter: the conflict-free bank
 * mapping of Fig. 7 and the block-fetch buffer.
 */

#include <gtest/gtest.h>

#include <set>

#include "reference/layouter.h"

namespace focus
{
namespace
{

using reference::LayouterBuffer;
using reference::layouterBank;
using reference::layouterOffset;

TEST(Layouter, PaperWorkedExamples)
{
    // Fig. 7, W=5.  First example: f=1, r=1, c=2.  The figure prints
    // "bank = 7", but its own formula 1%2*4 + 1%2*2 + 2%2 evaluates
    // to 6 (a typo in the figure; c=3 would give 7).  We assert the
    // formula.
    TokenCoord t1{1, 1, 2};
    EXPECT_EQ(layouterBank(t1), 6);
    EXPECT_EQ(layouterOffset(t1, 5), 1);
    // f=1, r=4, c=3 -> bank 5, offset 7.
    TokenCoord t2{1, 4, 3};
    EXPECT_EQ(layouterBank(t2), 5);
    EXPECT_EQ(layouterOffset(t2, 5), 7);
}

TEST(Layouter, BankFormula)
{
    EXPECT_EQ(layouterBank(TokenCoord{0, 0, 0}), 0);
    EXPECT_EQ(layouterBank(TokenCoord{0, 0, 1}), 1);
    EXPECT_EQ(layouterBank(TokenCoord{0, 1, 0}), 2);
    EXPECT_EQ(layouterBank(TokenCoord{1, 0, 0}), 4);
    EXPECT_EQ(layouterBank(TokenCoord{1, 1, 1}), 7);
}

TEST(Layouter, Every2x2x2BlockIsConflictFree)
{
    // Exhaustive: for every window anchor in a 6x9x9 volume, the 8
    // members map to 8 distinct banks.
    for (int f = 1; f < 6; ++f) {
        for (int r = 1; r < 9; ++r) {
            for (int c = 1; c < 9; ++c) {
                std::set<int> banks;
                for (int df = 0; df < 2; ++df) {
                    for (int dr = 0; dr < 2; ++dr) {
                        for (int dc = 0; dc < 2; ++dc) {
                            banks.insert(layouterBank(TokenCoord{
                                f - df, r - dr, c - dc}));
                        }
                    }
                }
                EXPECT_EQ(banks.size(), 8u)
                    << "anchor (" << f << "," << r << "," << c << ")";
            }
        }
    }
}

TEST(Layouter, SameBankSlotsAreDistinctWithinFramePair)
{
    // Within a frame pair (f, f+1) and a W x H frame, no two tokens
    // mapping to the same bank share an offset.
    const int w = 9, h = 7;
    for (int f = 0; f < 2; ++f) {
        std::set<std::pair<int, int64_t>> slots;
        for (int r = 0; r < h; ++r) {
            for (int c = 0; c < w; ++c) {
                const TokenCoord t{f, r, c};
                const auto key = std::make_pair(
                    layouterBank(t), layouterOffset(t, w));
                EXPECT_TRUE(slots.insert(key).second)
                    << "collision at (" << f << "," << r << "," << c
                    << ")";
            }
        }
    }
}

TEST(LayouterBuffer, StoreAndFetchBlock)
{
    const int w = 5;
    LayouterBuffer buf(w, 64);
    // Store two full 5x5 frames with ids = flat index.
    int64_t id = 0;
    for (int f = 0; f < 2; ++f) {
        for (int r = 0; r < 5; ++r) {
            for (int c = 0; c < 5; ++c) {
                buf.store(TokenCoord{f, r, c}, id++);
            }
        }
    }
    int64_t ids[8];
    const int distinct = buf.fetchBlock(TokenCoord{1, 1, 1}, ids);
    EXPECT_EQ(distinct, 8);
    // Member order is (df, dr, dc) lexicographic; key is (1,1,1).
    EXPECT_EQ(ids[0], 25 + 5 + 1); // (1,1,1)
    EXPECT_EQ(ids[7], 0);          // (0,0,0)
}

TEST(LayouterBuffer, MissingMembersReportedAsNegative)
{
    LayouterBuffer buf(5, 64);
    buf.store(TokenCoord{0, 0, 0}, 42);
    int64_t ids[8];
    buf.fetchBlock(TokenCoord{0, 0, 0}, ids);
    EXPECT_EQ(ids[0], 42);
    for (int i = 1; i < 8; ++i) {
        EXPECT_EQ(ids[i], -1); // out of volume or never stored
    }
}

TEST(LayouterBuffer, WindowBufferSizeMatchesPaper)
{
    // Tbl. I: 16 KB layouter buffer for a 256-vector window.  At 32
    // fp16 elements (64 B) per vector: 256 * 64 = 16 KB.
    const int64_t vectors = 256;
    const int64_t bytes_per_vector = 32 * 2;
    EXPECT_EQ(vectors * bytes_per_vector, 16 * 1024);
}

} // namespace
} // namespace focus
