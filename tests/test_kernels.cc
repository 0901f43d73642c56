/**
 * @file
 * Blocked GEMM kernel layer (tensor/kernels.h): bit-exactness of the
 * blocked kernels against the naive reference across
 * odd/prime/degenerate shapes, the tensor/ops.h entry point, and
 * thread-count bit-identity (raw kernels and through
 * Evaluator::runFunctional).
 *
 * SFU tier (SfuKernels.*): tolerance vs the scalar libm loops of
 * tests/reference/sfu.h (polynomial expf, fused softmax, SiLU,
 * RMSNorm, similarity gather), NaN propagation, degenerate shapes and
 * thread-count invariance.
 *
 * Cross-clone oracles (*MatchesOracleBitwise): each SFU kernel and
 * dotRowsScaled against its restatement in tests/reference/sfu.h,
 * compiled without clones at the baseline ISA.  Both QK^T tile
 * geometries (tensor/qk_tile.h) are instantiated here at this file's
 * ISA, so every host checks the one its kernels do not run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "eval/evaluator.h"
#include "reference/gemm.h"
#include "reference/sfu.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/qk_tile.h"
#include "tensor/tensor.h"

using namespace focus;

namespace
{

/** Gaussian inputs of standard deviation @p sd. */
std::vector<float>
randomBuf(Rng &rng, int64_t n, double sd = 1.0)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v) {
        x = static_cast<float>(sd * rng.gaussian());
    }
    return v;
}

/** memcmp two float buffers — strict bit-identity. */
bool
bitsEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(),
                    a.size() * sizeof(float)) == 0;
}

struct Shape
{
    int64_t m, n, k;
};

// Shapes chosen to hit every path of the 4 x 32 tile: unit dims and
// shapes narrower than one panel (n < 32: every column runs the
// single-row loop), primes off the tile grid, exact tile multiples,
// one-off sizes around the kMc=64 M-block boundary, and k = 1024,
// 1024 steps into each accumulator with no reload.  gemmShapes()
// adds n one below, at and one past one and three full panels against
// every m % 4 edge row count, inside one M block and across two.  The
// last three listed are the forward pass's own projection shapes
// (gate/up, QKV/O-proj, down) at packed-batch row counts.
const Shape kShapes[] = {
    {1, 1, 1},      {1, 16, 3},     {5, 1, 7},      {7, 9, 5},
    {13, 17, 11},   {31, 29, 37},   {64, 64, 64},   {65, 63, 66},
    {100, 37, 53},  {127, 129, 64}, {40, 24, 300},  {6, 23, 19},
    {66, 40, 300},  {37, 65, 1024}, {413, 256, 64}, {206, 64, 64},
    {101, 64, 256},
};

std::vector<Shape>
gemmShapes()
{
    std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
    for (int64_t m : {4, 9, 66, 71}) {
        for (int64_t n : {32, 33, 95, 96}) {
            shapes.push_back({m, n, 37});
        }
    }
    return shapes;
}

} // namespace

TEST(KernelsGemm, BlockedBitIdenticalToNaive)
{
    Rng rng(11);
    for (const Shape &s : gemmShapes()) {
        const std::vector<float> a = randomBuf(rng, s.m * s.k);
        const std::vector<float> b = randomBuf(rng, s.k * s.n);
        std::vector<float> c_blocked(static_cast<size_t>(s.m * s.n),
                                     -1.0f); // garbage: must be ignored
        std::vector<float> c_naive(static_cast<size_t>(s.m * s.n),
                                   0.0f);
        kernels::gemmF32(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                         c_blocked.data(), s.n);
        reference::gemmNaiveF32(s.m, s.n, s.k, a.data(), s.k, b.data(),
                              s.n, c_naive.data(), s.n);
        EXPECT_TRUE(bitsEqual(c_blocked, c_naive))
            << "shape " << s.m << "x" << s.n << "x" << s.k;
    }
}

TEST(KernelsGemm, KZeroYieldsZeroOutput)
{
    std::vector<float> a, b;
    std::vector<float> c(15, 123.0f);
    kernels::gemmF32(3, 5, 0, a.data(), 0, b.data(), 5, c.data(), 5);
    for (float v : c) {
        EXPECT_EQ(v, 0.0f);
    }
}

TEST(KernelsGemm, ThreadCountBitIdentity)
{
    // Large enough to cross the parallel-dispatch threshold with
    // several M blocks, with an edge row (301 % 4) in the last block
    // and an edge column (97 % 32) in every block.
    Rng rng(16);
    const int64_t m = 301, n = 97, k = 128;
    const std::vector<float> a = randomBuf(rng, m * k);
    const std::vector<float> b = randomBuf(rng, k * n);
    std::vector<float> c1(static_cast<size_t>(m * n));
    std::vector<float> c4(static_cast<size_t>(m * n));

    ThreadPool::setGlobalThreads(1);
    kernels::gemmF32(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    ThreadPool::setGlobalThreads(4);
    kernels::gemmF32(m, n, k, a.data(), k, b.data(), n, c4.data(), n);
    ThreadPool::setGlobalThreads(0); // back to default sizing

    EXPECT_TRUE(bitsEqual(c1, c4));

    std::vector<float> c_naive(static_cast<size_t>(m * n), 0.0f);
    reference::gemmNaiveF32(m, n, k, a.data(), k, b.data(), n,
                          c_naive.data(), n);
    EXPECT_TRUE(bitsEqual(c4, c_naive));
}

TEST(KernelsDotRows, TracksOpsDotWithinTolerance)
{
    // Anchor the kernel's values to ops.h dot within float tolerance.
    Rng rng(23);
    for (int64_t k : {1, 3, 7, 32, 64, 129}) {
        const std::vector<float> q = randomBuf(rng, k);
        const std::vector<float> b = randomBuf(rng, 6 * k);
        std::vector<float> out(6);
        kernels::dotRowsScaled(q.data(), b.data(), k, 6, k, 1.0f,
                               out.data());
        for (int64_t j = 0; j < 6; ++j) {
            const float want = dot(q.data(), b.data() + j * k, k);
            EXPECT_NEAR(out[static_cast<size_t>(j)], want,
                        1e-4 *
                            (1.0 +
                             std::abs(static_cast<double>(want))))
                << "k=" << k << " j=" << j;
        }
    }
}

TEST(KernelsDotRows, MatchesOracleBitwise)
{
    // Six rows: one dot4 group, then two dot1 rows.  Short k is where
    // a contracting compiler fuses dot1 in an FMA clone.
    Rng rng(24);
    for (int64_t k : {4, 7, 8, 13, 32, 64}) {
        const std::vector<float> q = randomBuf(rng, k);
        const std::vector<float> b = randomBuf(rng, 6 * (k + 3));
        const float scale = 0.17677669f;
        std::vector<float> got(6), want(6);
        kernels::dotRowsScaled(q.data(), b.data(), k + 3, 6, k, scale,
                               got.data());
        for (int64_t j = 0; j < 6; ++j) {
            want[static_cast<size_t>(j)] =
                reference::dotLanes4(q.data(), b.data() + j * (k + 3),
                                     k) *
                scale;
        }
        EXPECT_TRUE(bitsEqual(got, want)) << "k=" << k;
    }
}

TEST(KernelsGemm, TensorGemmMatchesNaive)
{
    Rng rng(20);
    Tensor a(9, 14), b(14, 11);
    for (int64_t i = 0; i < a.numel(); ++i) {
        a.data()[i] = static_cast<float>(rng.gaussian());
    }
    for (int64_t i = 0; i < b.numel(); ++i) {
        b.data()[i] = static_cast<float>(rng.gaussian());
    }
    Tensor c;
    Tensor c_naive(9, 11);
    gemm(a, b, c);
    reference::gemmNaiveF32(9, 11, 14, a.data(), 14, b.data(), 11,
                          c_naive.data(), 11);
    EXPECT_EQ(maxAbsDiff(c, c_naive), 0.0);
}

// The end-to-end contract the kernel layer must not break: functional
// evaluation aggregates stay bit-identical at every thread count (the
// blocked GEMM's M-block fan-out composes with the per-sample
// fan-out).
TEST(KernelsDeterminism, RunFunctionalBitIdenticalAcrossThreadCounts)
{
    EvalOptions o;
    o.samples = 3;
    Evaluator ev("Llava-Vid", "MVBench", o);

    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    const MethodEval serial =
        ev.runFunctional(MethodConfig::focusFull(), &serial_pool);
    const MethodEval parallel =
        ev.runFunctional(MethodConfig::focusFull(), &parallel_pool);

    EXPECT_EQ(serial.accuracy, parallel.accuracy);
    EXPECT_EQ(serial.sparsity, parallel.sparsity);
    ASSERT_EQ(serial.agg.keep_in.size(), parallel.agg.keep_in.size());
    for (size_t l = 0; l < serial.agg.keep_in.size(); ++l) {
        EXPECT_EQ(serial.agg.keep_in[l], parallel.agg.keep_in[l]);
        EXPECT_EQ(serial.agg.psi_qkv[l], parallel.agg.psi_qkv[l]);
        EXPECT_EQ(serial.agg.psi_ffn[l], parallel.agg.psi_ffn[l]);
    }
}

// -----------------------------------------------------------------
// SFU tier
// -----------------------------------------------------------------

TEST(SfuKernels, VectorExpTracksLibmAtUlpScale)
{
    // Dense sweep of the non-flushed range plus random gaussians:
    // the polynomial is specified to ~2 ulp relative error on
    // [-86, 88]; below -86 it flushes to zero (SfuKernels.
    // VectorExpSpecialValues covers that).
    std::vector<float> xs;
    for (float x = -85.9f; x <= 86.5f; x += 0.173f) {
        xs.push_back(x);
    }
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
        xs.push_back(static_cast<float>(rng.gaussian(0.0, 4.0)));
    }
    // x - 0.0f is x bit for bit, so this reaches expfPoly(x) itself.
    std::vector<float> got = xs;
    kernels::expBiasedSumF32(got.data(), static_cast<int64_t>(got.size()),
                             0.0f);
    for (size_t i = 0; i < xs.size(); ++i) {
        const double want = std::exp(static_cast<double>(xs[i]));
        EXPECT_NEAR(got[i], want, 5e-7 * want) << "x=" << xs[i];
    }
}

TEST(SfuKernels, VectorExpSpecialValues)
{
    constexpr float inf = std::numeric_limits<float>::infinity();
    float v[6] = {std::numeric_limits<float>::quiet_NaN(), -inf, inf,
                  0.0f, -87.0f, -1e30f};
    kernels::expBiasedSumF32(v, 6, 0.0f);
    EXPECT_TRUE(std::isnan(v[0]));
    EXPECT_EQ(v[1], 0.0f);  // flush-to-zero below the clamp range
    EXPECT_GT(v[2], 1e38f); // saturates large but finite
    EXPECT_EQ(v[3], 1.0f);
    EXPECT_EQ(v[4], 0.0f); // below -86: flushed (never denormal)
    EXPECT_EQ(v[5], 0.0f); // softmax -1e30 masks give exactly 0
}

TEST(SfuKernels, SoftmaxTracksLibm)
{
    Rng rng(33);
    for (int64_t cols : {1, 3, 7, 8, 64, 129}) {
        const int64_t rows = 5;
        std::vector<float> base(static_cast<size_t>(rows * cols));
        for (auto &v : base) {
            v = static_cast<float>(rng.gaussian(0.0, 3.0));
        }
        std::vector<float> libm = base, vec = base;
        for (int64_t i = 0; i < rows; ++i) {
            reference::softmaxRowLibm(libm.data() + i * cols, cols);
        }
        kernels::softmaxRowsF32(rows, cols, vec.data(), cols);
        for (int64_t i = 0; i < rows; ++i) {
            float sum = 0.0f;
            for (int64_t j = 0; j < cols; ++j) {
                const size_t at = static_cast<size_t>(i * cols + j);
                EXPECT_NEAR(vec[at], libm[at], 2e-6)
                    << "cols=" << cols << " (" << i << "," << j << ")";
                sum += vec[at];
            }
            EXPECT_NEAR(sum, 1.0f, 1e-5);
        }
    }
}

TEST(SfuKernels, SoftmaxVectorPropagatesNaNForAllMaskedRows)
{
    constexpr float ninf = -std::numeric_limits<float>::infinity();
    std::vector<float> x = {ninf, ninf, ninf, 0.5f, 0.25f, 0.125f};
    kernels::softmaxRowsF32(2, 3, x.data(), 3);
    for (int j = 0; j < 3; ++j) {
        EXPECT_TRUE(std::isnan(x[static_cast<size_t>(j)]));
        EXPECT_GT(x[static_cast<size_t>(3 + j)], 0.0f);
    }
}

TEST(SfuKernels, SoftmaxDegenerateShapesAreNoops)
{
    float sentinel[3] = {1.0f, 2.0f, 3.0f};
    kernels::softmaxRowsF32(0, 3, sentinel, 3);
    kernels::softmaxRowsF32(3, 0, sentinel, 0);
    EXPECT_EQ(sentinel[0], 1.0f);
    EXPECT_EQ(sentinel[1], 2.0f);
    EXPECT_EQ(sentinel[2], 3.0f);
    EXPECT_EQ(kernels::expBiasedSumF32(sentinel, 0, 0.0f), 0.0f);
    EXPECT_EQ(sentinel[0], 1.0f);
}

TEST(SfuKernels, SwigluTracksLibm)
{
    // up = 1 exactly, so the product rounds nothing and the kernel's
    // SiLU is compared with libm's alone.
    Rng rng(35);
    std::vector<float> base = randomBuf(rng, 513);
    base.push_back(30.0f); // deep saturation both sides
    base.push_back(-30.0f);
    const int64_t n = static_cast<int64_t>(base.size());
    const std::vector<float> up(base.size(), 1.0f);
    std::vector<float> libm = base, vec = base;
    reference::siluLibm(libm.data(), n);
    kernels::swigluF32(vec.data(), up.data(), n);
    for (size_t i = 0; i < base.size(); ++i) {
        const double tol =
            1e-6 * (1.0 + std::abs(static_cast<double>(base[i])));
        EXPECT_NEAR(vec[i], libm[i], tol) << "silu x=" << base[i];
    }
}

TEST(SfuKernels, RmsNormTracksLibm)
{
    Rng rng(36);
    const int64_t rows = 4, cols = 129;
    std::vector<float> base = randomBuf(rng, rows * cols);
    std::vector<float> gain = randomBuf(rng, cols);
    std::vector<float> libm = base, vec = base;
    for (int64_t i = 0; i < rows; ++i) {
        reference::rmsNormRowLibm(libm.data() + i * cols, cols,
                                  gain.data(), 1e-6f);
    }
    kernels::rmsNormRowsF32(rows, cols, vec.data(), cols, gain.data(),
                            1e-6f);
    for (size_t i = 0; i < libm.size(); ++i) {
        EXPECT_NEAR(vec[i], libm[i],
                    1e-5 *
                        (1.0 + std::abs(static_cast<double>(libm[i]))));
    }
}

TEST(SfuKernels, SimGatherTracksLibm)
{
    // The scalar path is ops.h's: l2Norm (4-lane dot, std::sqrt) and
    // cosineSimilarityPrenorm.
    Rng rng(38);
    for (int64_t n : {8, 32, 33}) {
        const int64_t rows = 9;
        const std::vector<float> pack = randomBuf(rng, rows * n);
        std::vector<float> norms(static_cast<size_t>(rows));
        const int64_t cand[] = {1, 2, 3, 4, 5, 6, 7, 8};
        std::vector<float> vec(8);
        kernels::l2NormRowsF32(pack.data(), n, rows, n, norms.data());
        kernels::simGatherF32(pack.data(), norms[0], pack.data(), n,
                              norms.data(), cand, 8, n, vec.data());
        const float key_norm = l2Norm(pack.data(), n);
        for (size_t c = 0; c < 8; ++c) {
            const float *row = pack.data() + cand[c] * n;
            const float want = cosineSimilarityPrenorm(
                pack.data(), key_norm, row, l2Norm(row, n), n);
            EXPECT_NEAR(vec[c], want, 1e-5)
                << "n=" << n << " cand=" << c;
        }
        // Zero-norm candidates never match.
        std::vector<float> zero_pack(static_cast<size_t>(2 * n), 0.0f);
        std::copy(pack.begin(), pack.begin() + n, zero_pack.begin());
        float znorms[2];
        kernels::l2NormRowsF32(zero_pack.data(), n, 2, n, znorms);
        const int64_t zc[] = {1};
        float zsim = -1.0f;
        kernels::simGatherF32(zero_pack.data(), znorms[0],
                              zero_pack.data(), n, znorms, zc, 1, n,
                              &zsim);
        EXPECT_EQ(zsim, 0.0f);
    }
}

TEST(SfuKernels, ThreadCountBitIdentity)
{
    // Large enough to cross the row fan-out threshold; per-row work is
    // independent, so results must be bit-identical at every pool
    // width.
    Rng rng(39);
    const int64_t rows = 300, cols = 300;
    const std::vector<float> base = randomBuf(rng, rows * cols);
    std::vector<float> c1 = base, c4 = base;
    ThreadPool::setGlobalThreads(1);
    kernels::softmaxRowsF32(rows, cols, c1.data(), cols);
    ThreadPool::setGlobalThreads(4);
    kernels::softmaxRowsF32(rows, cols, c4.data(), cols);
    ThreadPool::setGlobalThreads(0);
    EXPECT_TRUE(bitsEqual(c1, c4));

    std::vector<float> r1 = base, r4 = base;
    ThreadPool::setGlobalThreads(1);
    kernels::rmsNormRowsF32(rows, cols, r1.data(), cols, nullptr, 1e-6f);
    ThreadPool::setGlobalThreads(4);
    kernels::rmsNormRowsF32(rows, cols, r4.data(), cols, nullptr, 1e-6f);
    ThreadPool::setGlobalThreads(0);
    EXPECT_TRUE(bitsEqual(r1, r4));
}

// -----------------------------------------------------------------
// Cross-clone oracles: every SFU kernel body against its
// baseline-ISA restatement (tests/reference/sfu.h), bit for bit, at
// lengths on both sides of the 8-lane blocks and of a 16-lane zmm
// (16 and 17: one zmm, then a tail; 24 and 31: a zmm plus an 8-lane
// block, then a tail).
// -----------------------------------------------------------------

namespace
{

const int64_t kOracleLengths[] = {1,  3,  7,  8,  13, 16,  17,
                                  24, 31, 32, 64, 100, 257};

} // namespace

TEST(SfuKernels, SoftmaxMatchesOracleBitwise)
{
    // 16 rows per length: a swapped pair of adds in a lane sum changes
    // about one row in five, so three rows could miss it.
    constexpr int64_t kRows = 16;
    Rng rng(42);
    for (int64_t n : kOracleLengths) {
        std::vector<float> got = randomBuf(rng, kRows * n, 3.0);
        std::vector<float> want = got;
        kernels::softmaxRowsF32(kRows, n, got.data(), n);
        for (int64_t i = 0; i < kRows; ++i) {
            reference::softmaxRowVector(want.data() + i * n, n);
        }
        EXPECT_TRUE(bitsEqual(got, want)) << "n=" << n;
    }
}

TEST(SfuKernels, ExpBiasedSumMatchesOracleBitwise)
{
    Rng rng(43);
    for (int64_t n : kOracleLengths) {
        std::vector<float> got = randomBuf(rng, n, 3.0);
        std::vector<float> want = got;
        const float got_sum = kernels::expBiasedSumF32(got.data(), n, 0.7f);
        const float want_sum =
            reference::expBiasedSumVector(want.data(), n, 0.7f);
        EXPECT_TRUE(bitsEqual(got, want)) << "n=" << n;
        EXPECT_TRUE(bitsEqual({got_sum}, {want_sum})) << "n=" << n;
    }
}

TEST(SfuKernels, SwigluMatchesOracleBitwise)
{
    // The oracle is the forward pass's old two steps: SiLU of the
    // gate, then the multiply by up.
    Rng rng(44);
    for (int64_t n : kOracleLengths) {
        std::vector<float> gate = randomBuf(rng, n, 3.0);
        const std::vector<float> up = randomBuf(rng, n);
        std::vector<float> want = gate;
        kernels::swigluF32(gate.data(), up.data(), n);
        reference::siluVector(want.data(), n);
        for (size_t i = 0; i < want.size(); ++i) {
            want[i] *= up[i];
        }
        EXPECT_TRUE(bitsEqual(gate, want)) << "n=" << n;
    }
}

TEST(SfuKernels, RmsNormMatchesOracleBitwise)
{
    Rng rng(45);
    for (int64_t n : kOracleLengths) {
        const std::vector<float> base = randomBuf(rng, 3 * n);
        const std::vector<float> gain = randomBuf(rng, n);
        const float *gains[] = {gain.data(), nullptr};
        for (const float *g : gains) {
            std::vector<float> got = base, want = base;
            kernels::rmsNormRowsF32(3, n, got.data(), n, g, 1e-6f);
            for (int64_t i = 0; i < 3; ++i) {
                reference::rmsNormRowVector(want.data() + i * n, n, g,
                                            1e-6f);
            }
            EXPECT_TRUE(bitsEqual(got, want))
                << "n=" << n << (g != nullptr ? " gain" : " no gain");
        }
    }
}

TEST(SfuKernels, SimGatherMatchesOracleBitwise)
{
    Rng rng(46);
    const int64_t rows = 9;
    const int64_t cand[] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int64_t n : kOracleLengths) {
        const std::vector<float> pack = randomBuf(rng, rows * n);
        std::vector<float> norms(static_cast<size_t>(rows));
        std::vector<float> norms_ref(static_cast<size_t>(rows));
        kernels::l2NormRowsF32(pack.data(), n, rows, n, norms.data());
        for (int64_t i = 0; i < rows; ++i) {
            norms_ref[static_cast<size_t>(i)] =
                reference::l2NormVector(pack.data() + i * n, n);
        }
        EXPECT_TRUE(bitsEqual(norms, norms_ref)) << "n=" << n;

        std::vector<float> sims(8), sims_ref(8);
        kernels::simGatherF32(pack.data(), norms[0], pack.data(), n,
                              norms.data(), cand, 8, n, sims.data());
        for (size_t c = 0; c < 8; ++c) {
            sims_ref[c] = reference::simVector(
                pack.data(), norms[0], pack.data() + cand[c] * n,
                norms[static_cast<size_t>(cand[c])], n);
        }
        EXPECT_TRUE(bitsEqual(sims, sims_ref)) << "n=" << n;
    }
}

// -----------------------------------------------------------------
// Causal attention interior: each tiled kernel against the plain
// kernel it reorders, bit for bit.
// -----------------------------------------------------------------

namespace
{

// Around the 8- and 16-key blocks, plus the image (206) and video
// (811) prompt lengths of the benchmark grids.
std::vector<int64_t>
attentionRowCounts()
{
    std::vector<int64_t> rows;
    for (int64_t r = 1; r <= 17; ++r) {
        rows.push_back(r);
    }
    rows.push_back(206);
    rows.push_back(811);
    return rows;
}

/** Head slices: packed (ld == hd) and one head of two (ld > hd). */
struct HeadSlice
{
    int64_t hd, ld, c0;
};

const HeadSlice kHeadSlices[] = {{32, 32, 0}, {32, 64, 32}, {30, 37, 5}};

constexpr float kSentinel = 12345.0f;

/** The QK^T row bodies of both geometries (qk_tile.h), at this file's ISA. */
constexpr int64_t kQkTileRows[] = {1, 4};

void
qkRowsBody(int64_t tile_rows, const float *q, int64_t ldq,
           const float *keys, int64_t ldk, const float *kt, int64_t ldt,
           const int64_t *src, int64_t n, int64_t k, float scale,
           float *out, int64_t ldo)
{
    if (tile_rows == 4) {
        kernels::detail::qkScoresRowsBody<4>(q, ldq, keys, ldk, kt, ldt,
                                             src, n, k, scale, out, ldo);
    } else {
        kernels::detail::qkScoresRowsBody<1>(q, ldq, keys, ldk, kt, ldt,
                                             src, n, k, scale, out, ldo);
    }
}

/** Random causal P: finite lower triangle, exact +0 above it. */
std::vector<float>
causalProbs(Rng &rng, int64_t rows)
{
    std::vector<float> p = randomBuf(rng, rows * rows);
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = i + 1; j < rows; ++j) {
            p[static_cast<size_t>(i * rows + j)] = 0.0f;
        }
    }
    return p;
}

/** Random scores with @p fill above the diagonal, row stride @p ld. */
std::vector<float>
scoreBlock(Rng &rng, int64_t rows, int64_t ld, float fill)
{
    std::vector<float> x = randomBuf(rng, rows * ld);
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = i + 1; j < rows; ++j) {
            x[static_cast<size_t>(i * ld + j)] = fill;
        }
    }
    return x;
}

} // namespace

TEST(KernelsAttention, QkScoresRowsMatchDotRowsScaled)
{
    // The whole-matrix kernel (the geometry this host's clone runs),
    // then each tile geometry's row body over every row at once.
    Rng rng(51);
    for (const HeadSlice &hs : kHeadSlices) {
        for (int64_t rows : attentionRowCounts()) {
            const std::vector<float> q = randomBuf(rng, rows * hs.ld);
            const std::vector<float> k = randomBuf(rng, rows * hs.ld);
            const float scale = 0.17677669f;
            const int64_t ldo = rows + 3;
            std::vector<std::vector<float>> gots;
            gots.emplace_back(static_cast<size_t>(rows * ldo), kSentinel);
            kernels::qkScoresCausalF32(q.data() + hs.c0, hs.ld,
                                       k.data() + hs.c0, hs.ld, rows,
                                       hs.hd, scale, gots[0].data(), ldo);
            const int64_t ldt = kernels::keyPanelStride(rows);
            std::vector<float> kt(static_cast<size_t>(hs.hd * ldt));
            kernels::packKeyPanelF32(k.data() + hs.c0, hs.ld, rows, hs.hd,
                                     kt.data());
            std::vector<int64_t> src(static_cast<size_t>(rows));
            for (int64_t i = 0; i < rows; ++i) {
                src[static_cast<size_t>(i)] = i;
            }
            for (int64_t tile_rows : kQkTileRows) {
                gots.emplace_back(static_cast<size_t>(rows * ldo),
                                  kSentinel);
                qkRowsBody(tile_rows, q.data() + hs.c0, hs.ld,
                           k.data() + hs.c0, hs.ld, kt.data(), ldt,
                           src.data(), rows, hs.hd, scale,
                           gots.back().data(), ldo);
            }
            std::vector<float> want(static_cast<size_t>(ldo));
            for (int64_t i = 0; i < rows; ++i) {
                std::fill(want.begin(), want.end(), kSentinel);
                kernels::dotRowsScaled(q.data() + i * hs.ld + hs.c0,
                                       k.data() + hs.c0, hs.ld, i + 1,
                                       hs.hd, scale, want.data());
                for (size_t g = 0; g < gots.size(); ++g) {
                    ASSERT_EQ(std::memcmp(gots[g].data() + i * ldo,
                                          want.data(),
                                          want.size() * sizeof(float)),
                              0)
                        << "variant " << g
                        << " (0: clone, 1: one row, 2: 4 x 16 tile)"
                        << " rows=" << rows << " hd=" << hs.hd
                        << " ld=" << hs.ld << " row " << i;
                }
            }
        }
    }
}

// The oracle is the naive reference product, not gemmF32: the GEMM
// and P*V share their register tile, so a defect in it would pass a
// comparison of one with the other.
TEST(KernelsAttention, PvMatchesGemmOverCausalP)
{
    Rng rng(52);
    for (int64_t n : {32, 20, 48}) {
        for (int64_t rows : attentionRowCounts()) {
            const std::vector<float> p = causalProbs(rng, rows);
            const int64_t ldv = n + 16;
            const std::vector<float> v = randomBuf(rng, rows * ldv);
            // Identity, then an ascending pruned map that keeps the
            // last row (the text rows always survive).
            std::vector<int64_t> pruned;
            for (int64_t r = 0; r < rows; ++r) {
                if (r + 1 == rows || rng.uniform() < 0.6) {
                    pruned.push_back(r);
                }
            }
            const std::vector<int64_t> *maps[] = {nullptr, &pruned};
            for (const std::vector<int64_t> *map : maps) {
                const int64_t m =
                    map != nullptr ? static_cast<int64_t>(map->size())
                                   : rows;
                const int64_t *rowmap =
                    map != nullptr ? map->data() : nullptr;
                const int64_t ldo = n + 5;
                std::vector<float> got(static_cast<size_t>(m * ldo),
                                       kSentinel);
                std::vector<float> want = got;
                kernels::pvCausalF32(m, n, p.data(), rows, rowmap,
                                     v.data(), ldv, got.data(), ldo);
                // The GEMM reads the mapped P rows copied densely and
                // accumulates onto a zeroed output.
                std::vector<float> p_rows(static_cast<size_t>(m * rows));
                for (int64_t r = 0; r < m; ++r) {
                    const int64_t src = rowmap != nullptr ? rowmap[r] : r;
                    std::copy_n(&p[static_cast<size_t>(src * rows)], rows,
                                &p_rows[static_cast<size_t>(r * rows)]);
                    std::fill_n(&want[static_cast<size_t>(r * ldo)], n,
                                0.0f);
                }
                reference::gemmNaiveF32(m, n, rows, p_rows.data(), rows,
                                        v.data(), ldv, want.data(), ldo);
                EXPECT_TRUE(bitsEqual(got, want))
                    << "rows=" << rows << " n=" << n
                    << (map != nullptr ? " pruned" : " identity");
            }
        }
    }
}

TEST(KernelsAttention, SoftmaxCausalMatchesMaskedSoftmax)
{
    Rng rng(53);
    constexpr float nan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t rows : attentionRowCounts()) {
        for (int64_t ld : {rows, rows + 3}) {
            // The causal pass must ignore whatever sits above the
            // diagonal (NaN here); the oracle masks it with -1e30.
            std::vector<float> got = scoreBlock(rng, rows, ld, nan);
            std::vector<float> want = got;
            for (int64_t i = 0; i < rows; ++i) {
                for (int64_t j = i + 1; j < rows; ++j) {
                    want[static_cast<size_t>(i * ld + j)] = -1e30f;
                }
            }
            kernels::softmaxCausalF32(rows, got.data(), ld);
            kernels::softmaxRowsF32(rows, rows, want.data(), ld);
            EXPECT_TRUE(bitsEqual(got, want))
                << "rows=" << rows << " ld=" << ld;
        }
    }
}

TEST(KernelsAttention, ThreadCountBitIdentity)
{
    Rng rng(54);
    const int64_t rows = 811, hd = 32, ld = 64;
    const std::vector<float> q = randomBuf(rng, rows * ld);
    const std::vector<float> k = randomBuf(rng, rows * ld);
    const std::vector<float> v = randomBuf(rng, rows * ld);
    auto run = [&](int threads) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<float> p(static_cast<size_t>(rows * rows),
                             kSentinel);
        kernels::qkScoresCausalF32(q.data(), ld, k.data(), ld, rows, hd,
                                   0.17677669f, p.data(), rows);
        kernels::softmaxCausalF32(rows, p.data(), rows);
        std::vector<float> out(static_cast<size_t>(rows * hd));
        kernels::pvCausalF32(rows, hd, p.data(), rows, nullptr,
                             v.data(), ld, out.data(), hd);
        ThreadPool::setGlobalThreads(0);
        p.insert(p.end(), out.begin(), out.end());
        return p;
    };
    EXPECT_TRUE(bitsEqual(run(1), run(4)));
}

// -----------------------------------------------------------------
// Row-range pieces of the streamed interior, each against the
// whole-matrix kernel, bit for bit.
// -----------------------------------------------------------------

TEST(KernelsAttention, QkScoresRowRangesMatchFullTriangle)
{
    // Ranges starting at every i0 mod 16 (so also off the 4-aligned
    // dot4 groups), of lengths inside one 16-row group and across
    // several (leaving every n % 4 for qkBlock<16> after the 4-row
    // tiles), plus a scattered (pruned) row list, against the rows
    // qkScoresCausalF32 writes; entries past the diagonal must keep
    // their sentinel.  Each list runs qkScoresRowsF32 (this host's
    // clone) and both tile geometries' row bodies.
    Rng rng(55);
    const HeadSlice &hs = kHeadSlices[1];
    for (int64_t rows : {40, 206, 811}) {
        const std::vector<float> q = randomBuf(rng, rows * hs.ld);
        const std::vector<float> k = randomBuf(rng, rows * hs.ld);
        const float scale = 0.17677669f;
        const int64_t ldo = rows + 3;
        std::vector<float> full(static_cast<size_t>(rows * ldo),
                                kSentinel);
        kernels::qkScoresCausalF32(q.data() + hs.c0, hs.ld,
                                   k.data() + hs.c0, hs.ld, rows, hs.hd,
                                   scale, full.data(), ldo);
        const int64_t ldt = kernels::keyPanelStride(rows);
        std::vector<float> kt(static_cast<size_t>(hs.hd * ldt));
        kernels::packKeyPanelF32(k.data() + hs.c0, hs.ld, rows, hs.hd,
                                 kt.data());

        std::vector<std::vector<int64_t>> lists;
        for (int64_t base : {int64_t{0}, rows / 2, rows - 33}) {
            for (int64_t off = 0; off < 16; ++off) {
                for (int64_t len : {1, 2, 5, 6, 16, 23}) {
                    const int64_t i0 = base + off;
                    const int64_t i1 = std::min(rows, i0 + len);
                    std::vector<int64_t> src;
                    for (int64_t i = i0; i < i1; ++i) {
                        src.push_back(i);
                    }
                    if (!src.empty()) {
                        lists.push_back(src);
                    }
                }
            }
        }
        std::vector<int64_t> pruned;
        for (int64_t i = 0; i < rows; ++i) {
            if (rng.uniform() < 0.4) {
                pruned.push_back(i);
            }
        }
        lists.push_back(pruned);

        for (const std::vector<int64_t> &src : lists) {
            const int64_t n = static_cast<int64_t>(src.size());
            for (int64_t tile_rows : {int64_t{0}, int64_t{1}, int64_t{4}}) {
                std::vector<float> got(static_cast<size_t>(n * ldo),
                                       kSentinel);
                if (tile_rows == 0) {
                    kernels::qkScoresRowsF32(
                        q.data() + hs.c0, hs.ld, k.data() + hs.c0, hs.ld,
                        kt.data(), ldt, src.data(), n, hs.hd, scale,
                        got.data(), ldo);
                } else {
                    qkRowsBody(tile_rows, q.data() + hs.c0, hs.ld,
                               k.data() + hs.c0, hs.ld, kt.data(), ldt,
                               src.data(), n, hs.hd, scale, got.data(),
                               ldo);
                }
                for (int64_t r = 0; r < n; ++r) {
                    ASSERT_EQ(std::memcmp(got.data() + r * ldo,
                                          full.data() + src[r] * ldo,
                                          static_cast<size_t>(ldo) *
                                              sizeof(float)),
                              0)
                        << "tile rows " << tile_rows << " (0: clone)"
                        << " rows=" << rows << " first=" << src.front()
                        << " n=" << n << " row " << src[r];
                }
            }
        }
    }
}

TEST(KernelsAttention, PvRowPointersMatchRowMap)
{
    // pvCausalRowsF32 with P rows spread over two buffers (as the
    // stream reads scored rows from its block and text rows from the
    // text buffer) against pvCausalF32 with the same row map.
    Rng rng(56);
    for (int64_t n : {32, 20}) {
        for (int64_t rows : {1, 2, 17, 206, 811}) {
            const std::vector<float> p = causalProbs(rng, rows);
            const std::vector<float> p_copy = p;
            const int64_t ldv = n + 16;
            const std::vector<float> v = randomBuf(rng, rows * ldv);
            std::vector<int64_t> map;
            for (int64_t r = 0; r < rows; ++r) {
                if (r + 1 == rows || rng.uniform() < 0.6) {
                    map.push_back(r);
                }
            }
            const int64_t m = static_cast<int64_t>(map.size());
            std::vector<const float *> prows;
            for (int64_t r = 0; r < m; ++r) {
                const std::vector<float> &buf = r % 3 == 0 ? p_copy : p;
                prows.push_back(buf.data() + map[r] * rows);
            }
            const int64_t ldo = n + 5;
            std::vector<float> got(static_cast<size_t>(m * ldo),
                                   kSentinel);
            std::vector<float> want = got;
            kernels::pvCausalRowsF32(m, n, prows.data(), map.data(),
                                     v.data(), ldv, got.data(), ldo);
            kernels::pvCausalF32(m, n, p.data(), rows, map.data(),
                                 v.data(), ldv, want.data(), ldo);
            EXPECT_TRUE(bitsEqual(got, want))
                << "rows=" << rows << " n=" << n;
        }
    }
}

TEST(KernelsAttention, SoftmaxCausalRowMatchesFullPass)
{
    // Each row alone against the whole-block pass on every live entry;
    // the row writes only up to min(round8(i+1), rows).
    Rng rng(57);
    for (int64_t rows : attentionRowCounts()) {
        const std::vector<float> scores =
            scoreBlock(rng, rows, rows, kSentinel);
        std::vector<float> want = scores;
        kernels::softmaxCausalF32(rows, want.data(), rows);
        for (int64_t i = 0; i < rows; ++i) {
            std::vector<float> row(scores.begin() + i * rows,
                                   scores.begin() + (i + 1) * rows);
            kernels::softmaxCausalRowF32(row.data(), i, rows);
            const int64_t width = std::min((i + 8) / 8 * 8, rows);
            ASSERT_EQ(std::memcmp(row.data(), want.data() + i * rows,
                                  static_cast<size_t>(i + 1) *
                                      sizeof(float)),
                      0)
                << "rows=" << rows << " row " << i;
            for (int64_t j = width; j < rows; ++j) {
                ASSERT_EQ(row[static_cast<size_t>(j)], kSentinel)
                    << "rows=" << rows << " row " << i << " col " << j;
            }
        }
    }
}

TEST(KernelsAttention, StreamedInteriorMatchesWholeMatricesAtEveryWidth)
{
    // Two heads of 811 rows, 8 text rows, with the identity map and a
    // pruned one (ascending visual rows, then every text row): the
    // streamed interior against qkScoresCausalF32 + softmaxCausalF32 +
    // pvCausalF32 over full matrices, at pool widths 1 and 4.
    Rng rng(58);
    const int64_t rows = 811, hd = 32, heads = 2, ld = heads * hd;
    const int64_t text_rows = 8, s = rows - text_rows;
    const std::vector<float> q = randomBuf(rng, rows * ld);
    const std::vector<float> k = randomBuf(rng, rows * ld);
    const std::vector<float> v = randomBuf(rng, rows * ld);
    const float scale = 0.17677669f;
    std::vector<int64_t> pruned;
    for (int64_t r = 0; r < s; ++r) {
        if (rng.uniform() < 0.3) {
            pruned.push_back(r);
        }
    }
    for (int64_t r = s; r < rows; ++r) {
        pruned.push_back(r);
    }

    std::vector<std::vector<float>> probs;
    for (int64_t h = 0; h < heads; ++h) {
        std::vector<float> p(static_cast<size_t>(rows * rows));
        kernels::qkScoresCausalF32(q.data() + h * hd, ld, k.data() + h * hd,
                                   ld, rows, hd, scale, p.data(), rows);
        kernels::softmaxCausalF32(rows, p.data(), rows);
        probs.push_back(std::move(p));
    }

    kernels::CausalHeads att;
    att.q = q.data();
    att.k = k.data();
    att.v = v.data();
    att.ld = ld;
    att.rows = rows;
    att.heads = heads;
    att.hd = hd;
    att.scale = scale;
    for (const std::vector<int64_t> *map :
         {static_cast<const std::vector<int64_t> *>(nullptr),
          static_cast<const std::vector<int64_t> *>(&pruned)}) {
        const int64_t m =
            map != nullptr ? static_cast<int64_t>(map->size()) : rows;
        const int64_t *rowmap = map != nullptr ? map->data() : nullptr;
        std::vector<float> want(static_cast<size_t>(m * ld));
        for (int64_t h = 0; h < heads; ++h) {
            kernels::pvCausalF32(m, hd, probs[h].data(), rows, rowmap,
                                 v.data() + h * hd, ld,
                                 want.data() + h * hd, ld);
        }
        for (int threads : {1, 4}) {
            ThreadPool::setGlobalThreads(threads);
            std::vector<float> panels(
                static_cast<size_t>(kernels::keyPanelsSize(att)));
            kernels::packKeyPanelsF32(att, panels.data());
            std::vector<float> text0(static_cast<size_t>(text_rows * rows));
            std::vector<float> text1 = text0;
            float *text[] = {text0.data(), text1.data()};
            kernels::causalTextRowsF32(att, panels.data(), s, text, rows);
            for (int64_t h = 0; h < heads; ++h) {
                for (int64_t i = 0; i < text_rows; ++i) {
                    ASSERT_EQ(std::memcmp(text[h] + i * rows,
                                          probs[h].data() + (s + i) * rows,
                                          static_cast<size_t>(s + i + 1) *
                                              sizeof(float)),
                              0)
                        << "head " << h << " text row " << i;
                }
            }
            std::vector<float> got(static_cast<size_t>(m * ld), kSentinel);
            kernels::causalAttentionF32(att, panels.data(), s, text, rows,
                                        rowmap, m, got.data(), ld);
            ThreadPool::setGlobalThreads(0);
            EXPECT_TRUE(bitsEqual(got, want))
                << (map != nullptr ? "pruned" : "identity") << " at "
                << threads << " threads";
        }
    }
}
