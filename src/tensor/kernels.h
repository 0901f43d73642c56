/**
 * @file
 * Blocked GEMM kernel layer and SFU/vector-math tier: cache-blocked,
 * register-tiled portable microkernels.
 *
 * This is the compute substrate under `tensor/ops.h` (`gemm`,
 * softmax, RMSNorm, SiLU), the attention inner loops of
 * `vlm/model.cc`, and the SIC similarity gather of `focus/sic.cc`.
 * The GEMM is B-panel packing + a 4xNR register-tiled microkernel with
 * M-blocks fanned across the `runtime/thread_pool.h` pool.  It is bit-identical to the naive
 * reference loops in tests/reference/gemm.h — per output element the
 * accumulation order is exactly the reference order (ascending k with
 * a single accumulator, one std::fma per step) — at every thread
 * count.  The attention interiors (`dotRowsScaled`, the causal
 * QK^T/P*V products) pin their accumulation order the same way.
 *
 * The build never contracts a mul+add (-ffp-contract=off); every
 * fused multiply-add is a std::fma in kernels.cc.  So the kernels'
 * bits depend on the source and the inputs only, not on which
 * target_clones body the host runs (docs/KERNELS.md, "Vectorization
 * and determinism").
 *
 * The SFU tier (softmax/exp, SiLU, RMSNorm, the SIC similarity
 * gather) has one implementation: a branch-free polynomial `expf`
 * (Cephes-style degree-6, relative error ~2 ulp over the clamped
 * range) and 8-lane reductions under the same `target_clones` scheme
 * as the GEMM microkernels.  It calls no libm transcendental, so its
 * bits do not depend on the host: the tests match them to
 * baseline-ISA restatements (tests/reference/sfu.h) bit for bit, and
 * bound them against libm (`*TracksLibm`).  Per-row work is
 * data-parallel with no cross-row reduction, so results are
 * bit-identical at every thread count (`SfuKernels.*` tests).
 */

#ifndef FOCUS_TENSOR_KERNELS_H
#define FOCUS_TENSOR_KERNELS_H

#include <cstdint>

namespace focus
{
namespace kernels
{

// ---------------------------------------------------------------
// SFU / vector-math tier (softmax, exp, SiLU, RMSNorm, SIC similarity
// gather).  See the file comment for the arithmetic.
// ---------------------------------------------------------------

// perfbench/main.cc still names the math backend; only a change to
// the benchmark may edit it.  ROADMAP item 6 drops those calls and
// then this shim.
enum class MathBackend { Vector };
inline const char *mathBackendName(MathBackend) { return "vector"; }
inline MathBackend activeMathBackend() { return MathBackend::Vector; }
inline void setMathBackend(MathBackend) {}

/**
 * Fused row-wise numerically-stable softmax over a (rows x cols)
 * row-major block with row stride @p ld: per row, subtract the max,
 * exponentiate (polynomial expf), and scale by the reciprocal of the
 * sum, with 8-lane max/sum reductions.  Rows of width 0 (or empty
 * blocks) are a no-op.  All-NaN / all-(-inf) rows propagate NaN.
 * Rows fan across the thread pool when the block is large enough;
 * per-row work is independent, so results are bit-identical at every
 * thread count.
 */
void softmaxRowsF32(int64_t rows, int64_t cols, float *x, int64_t ld);

/**
 * x[j] = exp(x[j] - bias) for j in [0, n); returns the sum of the
 * results in 8 lanes (the readout logit path of `vlm/model.cc`).  The
 * polynomial expf propagates NaN, flushes inputs below the clamp
 * range (about -86) to exactly 0 like libm's underflow, and
 * saturates +inf to exp(88) ~ 1.7e38 (large but finite).
 */
float expBiasedSumF32(float *x, int64_t n, float bias);

/** x[i] = x[i] * sigmoid(x[i]) (SiLU/swish), element-wise over n. */
void siluF32(float *x, int64_t n);

/**
 * RMSNorm over each row of a (rows x cols) block with row stride
 * @p ld: row /= sqrt(mean(row^2) + eps), then scaled by @p gain
 * (length cols) when non-null.  cols == 0 is a no-op.  The sum of
 * squares runs in 8 lanes; row-parallel like softmaxRowsF32.
 */
void rmsNormRowsF32(int64_t rows, int64_t cols, float *x, int64_t ld,
                    const float *gain, float eps);

/**
 * norms[i] = l2 norm of row i of a (rows x n) block with row stride
 * @p ld, from an 8-lane sum of squares.
 */
void l2NormRowsF32(const float *x, int64_t ld, int64_t rows, int64_t n,
                   float *norms);

/**
 * Blocked cosine-similarity gather (the SIC matcher inner loop):
 * sims[c] = cosine(key, pack + cand[c]*ld) for c in [0, count),
 * using precomputed norms (@p key_norm for the key, norms[cand[c]]
 * for candidate c — the per-tile L2 buffer the hardware matcher
 * keeps).  Near-zero norms yield similarity 0, as in ops.h
 * `cosineSimilarityPrenorm`.  The reference rows are packed once per
 * tile slice by the caller; candidates stream through an 8-lane
 * register-tiled dot kernel, one candidate per call (see the simDot1
 * comment for why wider tiling loses).
 */
void simGatherF32(const float *key, float key_norm, const float *pack,
                  int64_t ld, const float *norms, const int64_t *cand,
                  int64_t count, int64_t n, float *sims);

// ---------------------------------------------------------------
// Blocking geometry (exposed for tests and docs/KERNELS.md).
// ---------------------------------------------------------------
inline constexpr int64_t kMr = 4;   ///< microkernel rows (A panel)
inline constexpr int64_t kNr = 8;   ///< microkernel cols (B panel)
inline constexpr int64_t kMc = 64;  ///< rows per M block = parallel grain
inline constexpr int64_t kKc = 256; ///< depth per packed K block

/**
 * C = A * B (or C += A * B with @p accumulate) on raw row-major
 * buffers — the portable blocked path.
 *
 * A is (m x k) with row stride @p lda, B is (k x n) with row stride
 * @p ldb, C is (m x n) with row stride @p ldc.  With @p accumulate
 * false (the default) C's prior contents are ignored: the first K
 * block starts its accumulators at zero, so callers need not zero C.
 * When @p fp16_inputs is set, both operands are rounded through
 * binary16 while being packed, so the microkernel hot loop stays
 * branch-free.  @p a_rows, when non-null, is an m-entry gather map:
 * logical A row i reads from a + a_rows[i]*lda (used for the
 * post-prune P*V product).
 *
 * Per output element the accumulation order is ascending k with a
 * single accumulator — bit-identical to the naive reference
 * (tests/reference/gemm.h) on finite inputs at every thread count.
 */
void gemmF32(int64_t m, int64_t n, int64_t k, const float *a,
             int64_t lda, const float *b, int64_t ldb, float *c,
             int64_t ldc, bool fp16_inputs = false,
             const int64_t *a_rows = nullptr, bool accumulate = false);

/**
 * out[j] = dot(q, b + j*ldb, k) * scale for j in [0, rows) — the
 * attention-score row kernel (Q_i . K_j over one head slice), in the
 * 4-way-split lane order of ops.h `dot`.
 */
void dotRowsScaled(const float *q, const float *b, int64_t ldb,
                   int64_t rows, int64_t k, float scale, float *out);

/**
 * Causal attention scores for one head slice:
 * out[i*ldo + j] = dot(q + i*ldq, keys + j*ldk, k) * scale for
 * j in [0, i+1), i in [0, rows).  Entries with j > i are NOT written.
 *
 * Per element this is exactly the `dotRowsScaled` arithmetic (the
 * dot4/dot1 lane split with groups of four key rows aligned to
 * j = 0), so a row computed here is bit-identical to a
 * `dotRowsScaled(q_i, keys, ldk, i+1, ...)` call.  The keys are
 * packed once into a thread-local transposed (k x rows) panel, and
 * each query is scored against 16- and 8-key register tiles of it
 * with dot4's four lane accumulators per key; only the ragged
 * (i+1) % 4 tail keys run dot1 (docs/KERNELS.md, "Causal attention
 * interior").
 */
void qkScoresCausalF32(const float *q, int64_t ldq, const float *keys,
                       int64_t ldk, int64_t rows, int64_t k,
                       float scale, float *out, int64_t ldo);

/**
 * Causal softmax over a (rows x rows) score block with row stride
 * @p ld: row i normalizes its i+1 live entries and gets +0 in every
 * entry above the diagonal (prior contents there are ignored).
 *
 * Bit-identical to setting the entries above the diagonal to -1e30
 * and running softmaxRowsF32 over full rows: a masked entry adds an
 * exact zero to every sum and leaves every max unchanged.  Each row
 * runs over its live prefix rounded up to whole 8-lane blocks (slack
 * slots masked), or over the full row once that would pass its
 * trailing partial block, so every term keeps its lane.  Counted
 * under the same `kernels.softmax.*` counters as softmaxRowsF32 and
 * row-parallel like it.
 */
void softmaxCausalF32(int64_t rows, float *x, int64_t ld);

/**
 * Causal P*V for one head slice with an optional row gather map:
 * for each output row r in [0, m), with src = rowmap ? rowmap[r] : r,
 *
 *   out[r*ldo + c] = sum_{j=0}^{src} p[src*ldp + j] * v[j*ldv + c]
 *
 * accumulated in ascending-j order with a single accumulator per
 * element — the `gemmF32` reference order.  The j-range stops at the
 * causal limit src+1: rows of P come out of a causal softmax, so
 * every skipped p[src][j] (j > src) is exactly +-0 and the full-range
 * gemmF32 product adds only exact zeros beyond the limit (the same
 * argument that makes the naive reference's zero-skip bit-identical).
 * Skipping them halves the PV MACs and avoids packing the (rows x
 * rows) probability matrix entirely.  Output rows are taken in pairs
 * as 2 x 32 register tiles over the pair's shared causal range, then
 * each row adds its remaining keys in memory; column edges and an odd
 * last row run the single-row loop.  None of this changes an
 * element's accumulation order.
 */
void pvCausalF32(int64_t m, int64_t n, const float *p, int64_t ldp,
                 const int64_t *rowmap, const float *v, int64_t ldv,
                 float *out, int64_t ldo);

} // namespace kernels
} // namespace focus

#endif // FOCUS_TENSOR_KERNELS_H
