/**
 * @file
 * Cycle-faithful model of the a-way streaming bubble sorter of
 * Fig. 5(4).
 *
 * The hardware chains `a` max units into a pipelined bubble-sort lane
 * and makes ceil(k/a) passes over the M candidates, extracting `a`
 * more of the top-k per pass (M*k/a cycles total).  This model
 * reproduces that pass structure so tests/test_sec.cc can check that
 * it selects exactly the same set as secTopK and costs passes * M
 * cycles.  No production path runs it: the cycle model charges the
 * sorter with the closed-form secSorterStall (sim/systolic.cc).
 */

#ifndef FOCUS_TESTS_REFERENCE_STREAMING_TOPK_H
#define FOCUS_TESTS_REFERENCE_STREAMING_TOPK_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace focus
{
namespace reference
{

class StreamingTopK
{
  public:
    StreamingTopK(int lanes, int64_t k) : lanes_(lanes), k_(k)
    {
        if (lanes <= 0) {
            panic("StreamingTopK: lanes must be positive");
        }
    }

    /** Run the selection over the full importance vector. */
    std::vector<int64_t> select(const std::vector<float> &importance)
    {
        const int64_t m = static_cast<int64_t>(importance.size());
        cycles_ = 0;
        if (k_ >= m) {
            std::vector<int64_t> all(static_cast<size_t>(m));
            for (int64_t i = 0; i < m; ++i) {
                all[static_cast<size_t>(i)] = i;
            }
            return all;
        }

        // Each pass streams all M candidates through a chain of
        // `lanes` max registers; candidates already selected in
        // earlier passes are masked out.  A pass costs M cycles (one
        // candidate per cycle; the drain of the short chain is hidden
        // by pipelining).
        std::vector<bool> taken(static_cast<size_t>(m), false);
        std::vector<int64_t> selected;
        selected.reserve(static_cast<size_t>(k_));

        const int64_t passes = (k_ + lanes_ - 1) / lanes_;
        for (int64_t p = 0; p < passes &&
                 static_cast<int64_t>(selected.size()) < k_; ++p) {
            // Chain state: (value, index) per lane, best-first.
            std::vector<std::pair<float, int64_t>> chain;
            for (int64_t j = 0; j < m; ++j) {
                ++cycles_;
                if (taken[static_cast<size_t>(j)]) {
                    continue;
                }
                const float v = importance[static_cast<size_t>(j)];
                // Bubble the candidate into the chain.  The comparator
                // is lexicographic on (value, stream index): ties go
                // to the earlier-streamed candidate, including for
                // elements displaced mid-chain by a larger newcomer.
                std::pair<float, int64_t> cand{v, j};
                for (auto &slot : chain) {
                    if (cand.first > slot.first ||
                        (cand.first == slot.first &&
                         cand.second < slot.second)) {
                        std::swap(cand, slot);
                    }
                }
                if (static_cast<int>(chain.size()) < lanes_) {
                    chain.push_back(cand);
                }
            }
            const int64_t want = std::min<int64_t>(
                lanes_, k_ - static_cast<int64_t>(selected.size()));
            for (int64_t i = 0; i < want &&
                     i < static_cast<int64_t>(chain.size()); ++i) {
                selected.push_back(
                    chain[static_cast<size_t>(i)].second);
                taken[static_cast<size_t>(
                    chain[static_cast<size_t>(i)].second)] = true;
            }
        }
        std::sort(selected.begin(), selected.end());
        return selected;
    }

    /** Cycles consumed by the last select() call: passes * M. */
    uint64_t cycles() const { return cycles_; }

  private:
    int lanes_;
    int64_t k_;
    uint64_t cycles_ = 0;
};

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_STREAMING_TOPK_H
