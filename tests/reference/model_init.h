/**
 * @file
 * Serial reference of VlmModel's weight initialization: the oracle the
 * parallel constructor is checked against.
 *
 * One Rng stream draws every decoder matrix in turn (wq, wk, wv, wo,
 * wg, wu, wd per layer), one gaussian per element in row-major order,
 * and each matrix is then round-tripped through int8.  VlmModel fills
 * the matrices in parallel from start states it reaches with
 * Rng::discard; every fp32 and int8 weight must equal this loop's bit
 * for bit at every pool width (tests/test_runtime.cc).
 */

#ifndef FOCUS_TESTS_REFERENCE_MODEL_INIT_H
#define FOCUS_TESTS_REFERENCE_MODEL_INIT_H

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quant.h"
#include "vlm/model.h"

namespace focus
{
namespace reference
{

/** Random matrix with optional identity component. */
inline Tensor
initWeight(Rng &rng, int64_t rows, int64_t cols, double ident,
           double noise)
{
    Tensor w(rows, cols);
    const double scale = noise / std::sqrt(static_cast<double>(rows));
    for (int64_t i = 0; i < rows; ++i) {
        float *row = w.row(i);
        for (int64_t j = 0; j < cols; ++j) {
            row[j] = static_cast<float>(rng.gaussian(0.0, scale));
        }
        if (i < cols) {
            row[i] += static_cast<float>(ident);
        }
    }
    return w;
}

/** Band-local random matrix: input group g mixes mostly into band g. */
inline Tensor
initBlockLocalWeight(Rng &rng, int64_t rows, int64_t cols, double ident,
                     double local_noise, double global_noise,
                     int groups)
{
    Tensor w(rows, cols);
    const int64_t row_band = rows / groups;
    const int64_t col_band = cols / groups;
    const double local_scale =
        local_noise / std::sqrt(static_cast<double>(row_band));
    const double global_scale =
        global_noise / std::sqrt(static_cast<double>(rows));
    for (int64_t i = 0; i < rows; ++i) {
        float *row = w.row(i);
        const int64_t gi = i / row_band;
        for (int64_t j = 0; j < cols; ++j) {
            const bool local = gi == j / col_band;
            row[j] = static_cast<float>(
                rng.gaussian(0.0, local ? local_scale : global_scale));
        }
        if (i < cols) {
            row[i] += static_cast<float>(ident);
        }
    }
    return w;
}

/** The fp32 and int8 decoder weights of VlmModel(profile, seed). */
struct ModelWeights
{
    std::vector<VlmModel::LayerWeights> fp32;
    std::vector<VlmModel::LayerWeights> int8;
};

/** VlmModel's weights, drawn one matrix after another. */
inline ModelWeights
modelWeights(const ModelProfile &prof, uint64_t seed)
{
    const int64_t d = prof.hidden;
    const int64_t inner = prof.ffnInner();
    Rng rng(seed ^ 0xfeedc0dedeadbeefull);

    ModelWeights out;
    for (int l = 0; l < prof.layers; ++l) {
        VlmModel::LayerWeights w;
        w.wq = initWeight(rng, d, d, 1.6, 0.5);
        w.wk = initWeight(rng, d, d, 1.6, 0.5);
        w.wv = initWeight(rng, d, d, 0.7, 0.3);
        w.wo = initBlockLocalWeight(rng, d, d, 0.25, 0.35, 0.12,
                                    kNumGroups);
        w.wg = initBlockLocalWeight(rng, d, inner, 0.0, 1.0, 0.30,
                                    kNumGroups);
        w.wu = initBlockLocalWeight(rng, d, inner, 0.0, 1.0, 0.30,
                                    kNumGroups);
        w.wd = initBlockLocalWeight(rng, inner, d, 0.0, 0.45, 0.15,
                                    kNumGroups);
        w.n1 = Tensor(d);
        w.n2 = Tensor(d);
        w.n1.fill(1.0f);
        w.n2.fill(1.0f);
        out.fp32.push_back(std::move(w));
    }
    for (const VlmModel::LayerWeights &w : out.fp32) {
        VlmModel::LayerWeights q;
        q.wq = int8RoundTrip(w.wq);
        q.wk = int8RoundTrip(w.wk);
        q.wv = int8RoundTrip(w.wv);
        q.wo = int8RoundTrip(w.wo);
        q.wg = int8RoundTrip(w.wg);
        q.wu = int8RoundTrip(w.wu);
        q.wd = int8RoundTrip(w.wd);
        q.n1 = w.n1;
        q.n2 = w.n2;
        out.int8.push_back(std::move(q));
    }
    return out;
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_MODEL_INIT_H
