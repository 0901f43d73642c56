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

} // namespace focus
