/**
 * @file
 * Semantic Concentrator (SEC): prompt-aware token importance and
 * top-k / top-p / threshold selection (Sec. V).
 */

#ifndef FOCUS_FOCUS_SEC_H
#define FOCUS_FOCUS_SEC_H

#include <cstdint>
#include <vector>

#include "focus/config.h"
#include "tensor/tensor.h"

namespace focus
{

/**
 * Compute per-image-token importance from the text rows of per-head
 * attention maps.
 *
 * @param text_probs  per-head softmax(QK^T) text rows: tensor h holds
 *                    rows M..M+T-1 of head h's ((M+T) x (M+T)) map,
 *                    image tokens first, so its shape is (T x >= M).
 * @param num_image  M, number of image tokens (columns 0..M-1).
 * @param num_text   T, number of text tokens.
 * @return length-M importance vector:
 *         s_j = max over heads and text rows of text_probs[h](i, j).
 *
 * This is the streaming importance analyzer of Fig. 5(2): it reads
 * only the text-to-image block, so the forward pass scores the text
 * rows first and selects before any image row is scored.  The
 * functional result is exact (max-reduction order does not matter).
 */
std::vector<float> secImportance(const std::vector<Tensor> &text_probs,
                                 int64_t num_image, int64_t num_text);

/**
 * Exact top-k selection: returns the indices of the k largest
 * importance values, in ascending index order (the order tokens
 * stream in).  Ties broken toward lower index, matching a stable
 * hardware comparator chain.
 */
std::vector<int64_t> secTopK(const std::vector<float> &importance,
                             int64_t k);

/**
 * Top-p selection (the paper's Sec. VII-D future-work variant):
 * retain the smallest prefix of tokens, taken in descending
 * importance order, whose cumulative importance reaches @p p of the
 * total.  Adapts the retained count to the input: a frame with one
 * salient region keeps few tokens, a busy frame keeps many.
 * Returns ascending indices; always retains at least one token.
 */
std::vector<int64_t> secTopP(const std::vector<float> &importance,
                             double p);

/**
 * Threshold selection (post-softmax attention threshold variant):
 * retain every token whose importance exceeds @p theta times the
 * maximum importance.  Always retains at least the argmax.
 */
std::vector<int64_t> secThreshold(const std::vector<float> &importance,
                                  double theta);

} // namespace focus

#endif // FOCUS_FOCUS_SEC_H
