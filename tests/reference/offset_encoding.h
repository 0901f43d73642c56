/**
 * @file
 * Localized offset encoding model for retained-token positions
 * (Sec. V-C).
 *
 * After semantic pruning, downstream block-level similarity matching
 * must recover each retained token's (frame, row, col) coordinate.
 * The SEC emits, per retained token, the offset (gap) to the previous
 * retained token; positions are reconstructed by a running sum.  The
 * hardware uses a small per-tile register carrying the prior tile's
 * last index (Fig. 5(5)); functionally this is a prefix sum, which is
 * what this model implements.  No production path encodes offsets;
 * tests/test_sec.cc checks the round trip.
 */

#ifndef FOCUS_TESTS_REFERENCE_OFFSET_ENCODING_H
#define FOCUS_TESTS_REFERENCE_OFFSET_ENCODING_H

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace focus
{
namespace reference
{

/**
 * Offset-encoded retained-token positions.
 *
 * `offsets[i]` is the gap from the previous retained token's original
 * index (the first token's offset is measured from -1, so a retained
 * token 0 has offset 1).  Gaps are stored as uint16; a gap that would
 * overflow is split by inserting `kEscape` markers, each standing for
 * a gap contribution of 65534 with no token emitted, so arbitrarily
 * sparse retention encodes losslessly.
 */
struct OffsetEncoding
{
    static constexpr uint16_t kEscape = 0xffffu;

    std::vector<uint16_t> offsets;

    /** Encoded size in bytes (2 bytes per entry). */
    size_t byteSize() const { return offsets.size() * 2; }
};

/**
 * Encode ascending original indices of retained tokens.
 * Indices must be strictly increasing and non-negative.
 */
inline OffsetEncoding
encodeOffsets(const std::vector<int64_t> &retained)
{
    // An escape entry contributes kEscape - 1 to the running gap and
    // emits no token, so the literal that terminates a gap is always
    // in [1, kEscape - 1].
    constexpr int64_t escape_gap = OffsetEncoding::kEscape - 1;

    OffsetEncoding enc;
    enc.offsets.reserve(retained.size());
    int64_t prev = -1;
    for (int64_t idx : retained) {
        if (idx <= prev) {
            panic("encodeOffsets: indices must be strictly increasing "
                  "(%" PRId64 " after %" PRId64 ")", idx, prev);
        }
        int64_t gap = idx - prev;
        while (gap > escape_gap) {
            enc.offsets.push_back(OffsetEncoding::kEscape);
            gap -= escape_gap;
        }
        enc.offsets.push_back(static_cast<uint16_t>(gap));
        prev = idx;
    }
    return enc;
}

/** Decode back to original indices. */
inline std::vector<int64_t>
decodeOffsets(const OffsetEncoding &enc)
{
    constexpr int64_t escape_gap = OffsetEncoding::kEscape - 1;
    std::vector<int64_t> out;
    int64_t pos = -1;
    int64_t pending = 0;
    for (uint16_t o : enc.offsets) {
        if (o == OffsetEncoding::kEscape) {
            pending += escape_gap;
            continue;
        }
        pos += pending + o;
        pending = 0;
        out.push_back(pos);
    }
    return out;
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_OFFSET_ENCODING_H
