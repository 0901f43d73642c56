#include "focus/sec.h"

#include <algorithm>
#include <cinttypes>
#include <limits>

#include "common/logging.h"

namespace focus
{

std::vector<float>
secImportance(const std::vector<Tensor> &text_probs, int64_t num_image,
              int64_t num_text)
{
    if (text_probs.empty()) {
        panic("secImportance: no attention heads");
    }
    std::vector<float> importance(static_cast<size_t>(num_image),
                                  -std::numeric_limits<float>::infinity());
    for (const Tensor &head : text_probs) {
        if (head.rank() != 2 || head.rows() != num_text ||
            head.cols() < num_image) {
            panic("secImportance: head text rows %" PRId64 "x%" PRId64
                  ", expected %" PRId64 "x(>= %" PRId64 ")",
                  head.rows(), head.cols(), num_text, num_image);
        }
        // Text-to-Image block: every row, columns 0..M-1.
        for (int64_t i = 0; i < num_text; ++i) {
            const float *row = head.row(i);
            for (int64_t j = 0; j < num_image; ++j) {
                importance[static_cast<size_t>(j)] =
                    std::max(importance[static_cast<size_t>(j)], row[j]);
            }
        }
    }
    return importance;
}

std::vector<int64_t>
secTopK(const std::vector<float> &importance, int64_t k)
{
    const int64_t m = static_cast<int64_t>(importance.size());
    if (k >= m) {
        std::vector<int64_t> all(static_cast<size_t>(m));
        for (int64_t i = 0; i < m; ++i) {
            all[static_cast<size_t>(i)] = i;
        }
        return all;
    }
    std::vector<int64_t> idx(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i) {
        idx[static_cast<size_t>(i)] = i;
    }
    // Stable comparator: larger value first, lower index on ties.
    auto cmp = [&](int64_t a, int64_t b) {
        const float va = importance[static_cast<size_t>(a)];
        const float vb = importance[static_cast<size_t>(b)];
        if (va != vb) {
            return va > vb;
        }
        return a < b;
    };
    std::nth_element(idx.begin(), idx.begin() + k, idx.end(), cmp);
    idx.resize(static_cast<size_t>(k));
    std::sort(idx.begin(), idx.end());
    return idx;
}

std::vector<int64_t>
secTopP(const std::vector<float> &importance, double p)
{
    const int64_t m = static_cast<int64_t>(importance.size());
    if (m == 0) {
        return {};
    }
    std::vector<int64_t> order(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i) {
        order[static_cast<size_t>(i)] = i;
    }
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        const float va = importance[static_cast<size_t>(a)];
        const float vb = importance[static_cast<size_t>(b)];
        if (va != vb) {
            return va > vb;
        }
        return a < b;
    });
    double total = 0.0;
    for (float v : importance) {
        total += static_cast<double>(std::max(v, 0.0f));
    }
    const double target = p * total;

    std::vector<int64_t> keep;
    double cum = 0.0;
    for (int64_t idx : order) {
        keep.push_back(idx);
        cum += static_cast<double>(
            std::max(importance[static_cast<size_t>(idx)], 0.0f));
        if (cum >= target && !keep.empty()) {
            break;
        }
    }
    std::sort(keep.begin(), keep.end());
    return keep;
}

std::vector<int64_t>
secThreshold(const std::vector<float> &importance, double theta)
{
    const int64_t m = static_cast<int64_t>(importance.size());
    if (m == 0) {
        return {};
    }
    float mx = importance[0];
    int64_t argmax = 0;
    for (int64_t i = 1; i < m; ++i) {
        if (importance[static_cast<size_t>(i)] > mx) {
            mx = importance[static_cast<size_t>(i)];
            argmax = i;
        }
    }
    const double cut = theta * static_cast<double>(mx);
    std::vector<int64_t> keep;
    for (int64_t i = 0; i < m; ++i) {
        if (static_cast<double>(importance[static_cast<size_t>(i)]) >
            cut) {
            keep.push_back(i);
        }
    }
    if (keep.empty()) {
        keep.push_back(argmax);
    }
    return keep;
}

StreamingTopK::StreamingTopK(int lanes, int64_t k)
    : lanes_(lanes), k_(k), cycles_(0)
{
    if (lanes <= 0) {
        panic("StreamingTopK: lanes must be positive");
    }
}

std::vector<int64_t>
StreamingTopK::select(const std::vector<float> &importance)
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

    // Each pass streams all M candidates through a chain of `lanes`
    // max registers; candidates already selected in earlier passes are
    // masked out.  A pass costs M cycles (one candidate per cycle; the
    // drain of the short chain is hidden by pipelining).
    std::vector<bool> taken(static_cast<size_t>(m), false);
    std::vector<int64_t> selected;
    selected.reserve(static_cast<size_t>(k_));

    const int64_t passes = (k_ + lanes_ - 1) / lanes_;
    for (int64_t p = 0; p < passes &&
             static_cast<int64_t>(selected.size()) < k_; ++p) {
        // Chain state: (value, index) per lane, ordered best-first.
        std::vector<std::pair<float, int64_t>> chain;
        for (int64_t j = 0; j < m; ++j) {
            ++cycles_;
            if (taken[static_cast<size_t>(j)]) {
                continue;
            }
            const float v = importance[static_cast<size_t>(j)];
            // Bubble the candidate into the chain.  The comparator
            // is lexicographic on (value, stream index): ties go to
            // the earlier-streamed candidate, including for elements
            // displaced mid-chain by a larger newcomer.
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
            selected.push_back(chain[static_cast<size_t>(i)].second);
            taken[static_cast<size_t>(
                chain[static_cast<size_t>(i)].second)] = true;
        }
    }
    std::sort(selected.begin(), selected.end());
    return selected;
}

} // namespace focus
