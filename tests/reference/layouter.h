/**
 * @file
 * Convolution-style layouter model: conflict-free bank addressing for
 * block-level similarity matching (Sec. VI-B, Fig. 7).
 *
 * Given a token's (frame, row, col) coordinate, the layouter maps it
 * to one of 8 SRAM banks and an offset such that the 8 members of any
 * 2x2x2 block land in 8 distinct banks — enabling one-cycle parallel
 * block fetch with zero data duplication:
 *
 *   bank   = (f % 2) * 4 + (r % 2) * 2 + (c % 2)
 *   offset = floor(r / 2) * ceil(W / 2) + floor(c / 2)
 *
 * (The frame pair alternates between the two 4-bank halves; offsets
 * address within a frame's half.)  The cycle model assumes this
 * banking without consuming the model; tests/test_layouter.cc proves
 * block fetches conflict-free.
 */

#ifndef FOCUS_TESTS_REFERENCE_LAYOUTER_H
#define FOCUS_TESTS_REFERENCE_LAYOUTER_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "workload/video_gen.h"

namespace focus
{
namespace reference
{

/** Number of SRAM banks in the layouter (2x2x2 block members). */
constexpr int kLayouterBanks = 8;

/** Bank index for a token coordinate. */
inline int
layouterBank(const TokenCoord &t)
{
    return (t.f % 2) * 4 + (t.r % 2) * 2 + (t.c % 2);
}

/** Offset within the bank for a token coordinate in a WxH frame. */
inline int64_t
layouterOffset(const TokenCoord &t, int grid_w)
{
    const int64_t half_w = (grid_w + 1) / 2;
    return (static_cast<int64_t>(t.r) / 2) * half_w + (t.c / 2);
}

/** Simulated layouter buffer: a window of recent tokens across 8 banks. */
class LayouterBuffer
{
  public:
    /**
     * @param grid_w frame width in patches (needed by the offset fn)
     * @param depth  entries per bank
     */
    LayouterBuffer(int grid_w, int64_t depth)
        : grid_w_(grid_w), depth_(depth),
          banks_(kLayouterBanks,
                 std::vector<int64_t>(static_cast<size_t>(depth), -1))
    {
        if (depth <= 0) {
            panic("LayouterBuffer: depth must be positive");
        }
    }

    /**
     * Store a token id at its mapped (bank, offset % depth) slot.
     * Returns the bank used.
     */
    int
    store(const TokenCoord &t, int64_t token_id)
    {
        const int bank = layouterBank(t);
        const int64_t off = layouterOffset(t, grid_w_) % depth_;
        banks_[static_cast<size_t>(bank)][static_cast<size_t>(off)] =
            token_id;
        return bank;
    }

    /**
     * Fetch the token ids of an aligned block anchored at @p key
     * (the block spans f-df, r-dr, c-dc for df,dr,dc in {0,1}).
     * Returns the number of *distinct banks* touched; a correct
     * layout always reports the number of valid members, i.e. no two
     * members share a bank.  Missing members (never stored or
     * evicted) yield -1 entries.
     */
    int
    fetchBlock(const TokenCoord &key, int64_t out_ids[8]) const
    {
        std::array<bool, kLayouterBanks> used{};
        int distinct = 0;
        int member = 0;
        for (int df = 0; df < 2; ++df) {
            for (int dr = 0; dr < 2; ++dr) {
                for (int dc = 0; dc < 2; ++dc, ++member) {
                    const TokenCoord t{key.f - df, key.r - dr,
                                       key.c - dc};
                    if (t.f < 0 || t.r < 0 || t.c < 0) {
                        out_ids[member] = -1;
                        continue;
                    }
                    const int bank = layouterBank(t);
                    const int64_t off =
                        layouterOffset(t, grid_w_) % depth_;
                    out_ids[member] = banks_[static_cast<size_t>(bank)]
                        [static_cast<size_t>(off)];
                    if (!used[static_cast<size_t>(bank)]) {
                        used[static_cast<size_t>(bank)] = true;
                        ++distinct;
                    }
                }
            }
        }
        return distinct;
    }

  private:
    int grid_w_;
    int64_t depth_;
    // banks_[bank][slot] = token id or -1.
    std::vector<std::vector<int64_t>> banks_;
};

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_LAYOUTER_H
