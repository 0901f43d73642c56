/**
 * @file
 * Blocked GEMM kernel layer and SFU/vector-math tier: cache-blocked,
 * register-tiled portable microkernels.
 *
 * This is the compute substrate under `tensor/ops.h` (`gemm`,
 * softmax, RMSNorm), the attention inner loops and the FFN's SwiGLU
 * combine of `vlm/model.cc`, and the SIC similarity gather of
 * `focus/sic.cc`.  The GEMM packs B into 32-wide panels and reads A
 * in place; a 4x32 register tile (eight zmm accumulators in the
 * x86-64-v4 clone, sixteen ymm in the x86-64-v3 one) covers every
 * full 4-row group and panel, and the causal P*V runs the same tile.
 * Rows and columns no full tile covers run a single-row loop.
 * M-blocks fan across the `runtime/thread_pool.h` pool.  The GEMM is
 * bit-identical to the naive reference loops in
 * tests/reference/gemm.h — per output element the accumulation order
 * is exactly the reference order (ascending k with a single
 * accumulator from +0, one std::fma per step) — at every thread
 * count.  The attention interiors (`dotRowsScaled`, the causal
 * QK^T/P*V products) pin their accumulation order the same way; the
 * QK^T rows score four queries per 16-key tile in the x86-64-v4 body
 * and one query per 16-key block in the others (tensor/qk_tile.h),
 * with the same arithmetic per score.
 *
 * The build never contracts a mul+add (-ffp-contract=off); every
 * fused multiply-add is a std::fma in kernels.cc.  So the kernels'
 * bits depend on the source and the inputs only, not on which
 * multi-versioned body the host runs (docs/KERNELS.md,
 * "Vectorization and determinism").
 *
 * The SFU tier (softmax/exp, SwiGLU, RMSNorm, the SIC similarity
 * gather) has one implementation: a branch-free polynomial `expf`
 * (Cephes-style degree-6, relative error ~2 ulp over the clamped
 * range) and 8-lane reductions under the same `target_clones` scheme
 * as the GEMM microkernels (the softmax exponentiates 16 elements per
 * step and still sums them in 8 lanes).  It calls no libm
 * transcendental, so its bits do not depend on the host: the tests
 * match them to baseline-ISA restatements (tests/reference/sfu.h) bit
 * for bit, and bound them against libm (`*TracksLibm`).  Per-row work is
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

/**
 * The body of the multi-versioned kernels this binary runs:
 * "x86-64-v4", "x86-64-v3" or "baseline", picked by the loader's
 * resolver from per-level versions of its own, as it picks the
 * FOCUS_KERNEL_CLONES kernels and the per-level versions of the QK^T
 * rows (only "x86-64-v4" runs the 4-query QK^T tile) — or "single
 * body" in a build without clones (TSan, non-x86-64), whose QK^T rows
 * take the 4-query tile only when the build targets AVX-512.  Every
 * body computes the same bits; the name says which one a timing
 * measured.
 */
const char *cloneName();

// ---------------------------------------------------------------
// SFU / vector-math tier (softmax, exp, SwiGLU, RMSNorm, SIC
// similarity gather).  See the file comment for the arithmetic.
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

/**
 * The SwiGLU combine of the FFN, element-wise over n, in one pass:
 * gate[i] = gate[i] / (1 + exp(-gate[i])) * up[i] — SiLU (swish) of
 * the gate, rounded, then times up, rounded.  @p up may not alias
 * @p gate.
 */
void swigluF32(float *gate, const float *up, int64_t n);

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

/**
 * x[i] = fp16Round(x[i]) for i in [0, n): round through binary16 and
 * back (round-to-nearest-even), bit for bit as common/half.h
 * `fp16Round`.  Where the CPU has F16C, 8 lanes per step go through
 * vcvtps2ph/vcvtph2ps; the n % 8 tail, hosts without F16C and
 * non-x86 builds run the `fp16Round` loop.  The two agree on all
 * 2^32 inputs, NaN payloads included (EXPERIMENTS.md, "4 × 16 GEMM
 * tile and F16C activation rounding").
 */
void roundFp16F32(float *x, int64_t n);

// ---------------------------------------------------------------
// Blocking geometry (exposed for tests and docs/KERNELS.md).
// ---------------------------------------------------------------
inline constexpr int64_t kMr = 4;  ///< register tile rows (A or P rows)
inline constexpr int64_t kNr = 32; ///< register tile cols (B panel, V slice)
inline constexpr int64_t kMc = 64; ///< rows per M block = parallel grain

/**
 * C = A * B on raw row-major buffers — the portable blocked path.
 *
 * A is (m x k) with row stride @p lda, B is (k x n) with row stride
 * @p ldb, C is (m x n) with row stride @p ldc.  C's prior contents
 * are ignored: every element's accumulator starts at zero, so callers
 * need not zero C.
 *
 * Per output element the accumulation order is ascending k with a
 * single accumulator — bit-identical to the naive reference
 * (tests/reference/gemm.h) on finite inputs at every thread count.
 */
void gemmF32(int64_t m, int64_t n, int64_t k, const float *a,
             int64_t lda, const float *b, int64_t ldb, float *c,
             int64_t ldc);

/**
 * out[j] = dot(q, b + j*ldb, k) * scale for j in [0, rows) — the
 * attention-score row kernel (Q_i . K_j over one head slice), in the
 * 4-way-split lane order of ops.h `dot`.
 */
void dotRowsScaled(const float *q, const float *b, int64_t ldb,
                   int64_t rows, int64_t k, float scale, float *out);

// ---------------------------------------------------------------
// Causal attention interior (docs/KERNELS.md, "Causal attention
// interior").  The forward pass runs the streamed multi-head form at
// the end of this section; the three whole-matrix kernels below are
// wrappers over the same row bodies, kept for the microbenchmarks.
// ---------------------------------------------------------------

/**
 * Causal attention scores for one head slice:
 * out[i*ldo + j] = dot(q + i*ldq, keys + j*ldk, k) * scale for
 * j in [0, i+1), i in [0, rows).  Entries with j > i are NOT written.
 *
 * Per element this is exactly the `dotRowsScaled` arithmetic (the
 * dot4/dot1 lane split with groups of four key rows aligned to
 * j = 0), so a row computed here is bit-identical to a
 * `dotRowsScaled(q_i, keys, ldk, i+1, ...)` call.  The keys are
 * packed once into a thread-local transposed panel
 * (packKeyPanelF32), and 16-row ranges run qkScoresRowsF32.
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
 * runs softmaxCausalRowF32, then the rest of the row is zeroed.
 * Counted under the same `kernels.softmax.*` counters as
 * softmaxRowsF32 and row-parallel like it.
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
 * Runs pvCausalRowsF32 with P row pointers p + src*ldp.
 */
void pvCausalF32(int64_t m, int64_t n, const float *p, int64_t ldp,
                 const int64_t *rowmap, const float *v, int64_t ldv,
                 float *out, int64_t ldo);

/**
 * Column stride of a transposed key panel of @p rows keys: @p rows
 * rounded up to whole 16-key blocks, so every score block reads
 * inside the panel.
 */
int64_t keyPanelStride(int64_t rows);

/**
 * Transposed key panel of one head slice:
 * kt[p*ldt + j] = keys[j*ldk + p] for p in [0, k), j in [0, rows),
 * with ldt = keyPanelStride(rows) and the pad columns [rows, ldt)
 * zero.  The pad never reaches an output.
 */
void packKeyPanelF32(const float *keys, int64_t ldk, int64_t rows,
                     int64_t k, float *kt);

/**
 * Causal scores of @p n query rows against a packed key panel: row r
 * scores query src[r],
 *
 *   out[r*ldo + j] = dot(q + src[r]*ldq, keys + j*ldk, k) * scale
 *
 * for j in [0, src[r]+1), with nothing past the diagonal written —
 * bit for bit row src[r] of qkScoresCausalF32.  The 4-aligned prefix
 * of each row runs dot4's lane split in 16- and 8-key blocks of the
 * panel, the ragged (src+1) % 4 tail keys run dot1 on @p keys.
 * Groups of up to 16 rows run key-block outer: the 16-key blocks
 * every row of the group needs are scored for the whole group while
 * the panel slice sits in L1 — four rows at a time in a 4 x 16
 * register tile on an x86-64-v4 host, one row at a time elsewhere —
 * then each row scores the rest of its prefix alone.  Neither loop
 * order nor tile changes an element's arithmetic.  A plain function
 * over one internal function with a version per x86-64 level
 * (kernels.cc, qkScoresRows).
 */
void qkScoresRowsF32(const float *q, int64_t ldq, const float *keys,
                     int64_t ldk, const float *kt, int64_t ldt,
                     const int64_t *src, int64_t n, int64_t k,
                     float scale, float *out, int64_t ldo);

/**
 * Causal softmax of row @p i of a (rows x rows) score block:
 * normalizes the i+1 live entries and writes [0, w) with
 * w = min(round8(i+1), rows) — the probabilities, then +0 for finite
 * rows — and nothing past w.  The live prefix runs in whole 8-lane
 * blocks with slack slots masked to -1e30, or over the full row once
 * that would pass its trailing partial block, so every live term
 * keeps the lane the full-row softmaxRowsF32 pass gives it.  The row
 * body of softmaxCausalF32; not counted (its callers count rows).
 */
void softmaxCausalRowF32(float *row, int64_t i, int64_t rows);

/**
 * P*V with one probability row pointer per output row: for r in
 * [0, m), out[r*ldo + c] = sum_{j=0}^{src[r]} prows[r][j] * v[j*ldv + c]
 * in ascending j with one accumulator per element.  Output rows are
 * taken in groups of kMr as the GEMM's kMr x kNr register tile over
 * the group's shared causal range, then each row adds its remaining
 * keys in memory; column edges and the last m % kMr rows run the
 * single-row loop.  None of this changes an element's accumulation
 * order.
 */
void pvCausalRowsF32(int64_t m, int64_t n, const float *const *prows,
                     const int64_t *src, const float *v, int64_t ldv,
                     float *out, int64_t ldo);

/**
 * One sample's multi-head causal attention in the forward pass's
 * layout: @p rows rows of queries, keys and values with row stride
 * @p ld, head h owning columns [h*hd, (h+1)*hd) of each (and of the
 * output).  Rows [s, rows) are the text rows, the only ones SEC
 * reads.
 */
struct CausalHeads
{
    const float *q = nullptr;
    const float *k = nullptr;
    const float *v = nullptr;
    int64_t ld = 0;
    int64_t rows = 0;
    int64_t heads = 0;
    int64_t hd = 0;
    float scale = 1.0f;
};

/** Floats of every head's key panel: heads * hd * keyPanelStride(rows). */
int64_t keyPanelsSize(const CausalHeads &a);

/**
 * packKeyPanelF32 for every head: head h's panel at
 * panels + h*hd*keyPanelStride(rows).  The caller owns the panels;
 * causalTextRowsF32 and causalAttentionF32 (and the pool workers
 * that help it) only read them.
 */
void packKeyPanelsF32(const CausalHeads &a, float *panels);

/**
 * Causal probabilities of rows [s, rows) of every head: head h's row
 * s+i lands at text[h] + i*ldx (ldx >= rows), QK^T scores then the
 * causal softmax, each entry bit for bit the full-matrix
 * qkScoresCausalF32 + softmaxCausalF32 value, written as far as
 * softmaxCausalRowF32 writes.  Counted as (rows - s) * heads softmax
 * rows.
 */
void causalTextRowsF32(const CausalHeads &a, const float *panels,
                       int64_t s, float *const *text, int64_t ldx);

/**
 * The streamed interior: for output row r in [0, m) and head h, with
 * src = rowmap ? rowmap[r] : r,
 *
 *   out[r*ldo + h*hd + c] = sum_{j=0}^{src} P_h[src][j] * V_h[j][c],
 *
 * P_h the head's causal softmax(scale * Q K^T), with no (rows x rows)
 * matrix anywhere.  Text sources (src >= s) read P from @p text
 * (causalTextRowsF32's layout).  Every other source row is scored
 * and normalized in a thread-local block buffer, a block of output
 * rows at a time, right before its P*V: one pool task per (head,
 * block), so each block's P rows are still in L1/L2 when P*V reads
 * them.  Source rows no output row names are never scored.  Each
 * element keeps the qkScoresCausalF32 / softmaxCausalF32 /
 * pvCausalF32 arithmetic, so the output is bit-identical to those
 * three over full matrices, at every pool width.  Counts the rows it
 * normalizes as softmax rows.
 */
void causalAttentionF32(const CausalHeads &a, const float *panels,
                        int64_t s, const float *const *text,
                        int64_t ldx, const int64_t *rowmap, int64_t m,
                        float *out, int64_t ldo);

} // namespace kernels
} // namespace focus

#endif // FOCUS_TENSOR_KERNELS_H
