/**
 * @file
 * Blocked GEMM kernel layer (tensor/kernels.h): bit-exactness of the
 * blocked kernels against the naive reference across
 * odd/prime/degenerate shapes, fp16 packing parity, the row gather
 * map, accumulate mode, the tensor/ops.h entry point, and
 * thread-count bit-identity (raw kernels and through
 * Evaluator::runFunctional).
 *
 * SFU tier (SfuKernels.*): exact-backend bit-identity to the
 * historical scalar loops, vector-backend tolerance vs libm
 * (polynomial expf, fused softmax, SiLU/GELU, RMSNorm, similarity
 * gather), NaN propagation, degenerate shapes, thread-count
 * invariance, and the FOCUS_MATH_BACKEND dispatch.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/half.h"
#include "common/rng.h"
#include "eval/evaluator.h"
#include "reference/gemm.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

using namespace focus;

namespace
{

std::vector<float>
randomBuf(Rng &rng, int64_t n)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v) {
        x = static_cast<float>(rng.gaussian());
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

// Shapes chosen to hit every dispatch edge: unit dims, primes off the
// 4x8 tile grid, exact tile multiples, one-off sizes around the
// kMc=64 M-block boundary, and k=300 > kKc=256 to exercise the
// multi-K-block C reload path.
struct Shape
{
    int64_t m, n, k;
};

const Shape kShapes[] = {
    {1, 1, 1},    {1, 16, 3},    {5, 1, 7},       {7, 9, 5},
    {13, 17, 11}, {31, 29, 37},  {64, 64, 64},    {65, 63, 66},
    {100, 37, 53}, {127, 129, 64}, {40, 24, 300},
};

} // namespace

TEST(KernelsGemm, BlockedBitIdenticalToNaive)
{
    Rng rng(11);
    for (const Shape &s : kShapes) {
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

TEST(KernelsGemm, Fp16PackingMatchesNaiveFp16)
{
    Rng rng(12);
    for (const Shape &s : kShapes) {
        const std::vector<float> a = randomBuf(rng, s.m * s.k);
        const std::vector<float> b = randomBuf(rng, s.k * s.n);
        std::vector<float> c_blocked(static_cast<size_t>(s.m * s.n));
        std::vector<float> c_naive(static_cast<size_t>(s.m * s.n),
                                   0.0f);
        kernels::gemmF32(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                         c_blocked.data(), s.n, /*fp16_inputs=*/true);
        reference::gemmNaiveF32(s.m, s.n, s.k, a.data(), s.k, b.data(),
                              s.n, c_naive.data(), s.n,
                              /*fp16_inputs=*/true);
        EXPECT_TRUE(bitsEqual(c_blocked, c_naive))
            << "fp16 shape " << s.m << "x" << s.n << "x" << s.k;
    }
}

TEST(KernelsGemm, Fp16RoundsEachOperandOnce)
{
    // The packed-rounding path must equal rounding both operands
    // up front and running the plain-fp32 kernel.
    Rng rng(13);
    const int64_t m = 9, n = 21, k = 33;
    std::vector<float> a = randomBuf(rng, m * k);
    std::vector<float> b = randomBuf(rng, k * n);
    std::vector<float> c_fp16(static_cast<size_t>(m * n));
    kernels::gemmF32(m, n, k, a.data(), k, b.data(), n, c_fp16.data(),
                     n, /*fp16_inputs=*/true);
    for (auto &v : a) {
        v = fp16Round(v);
    }
    for (auto &v : b) {
        v = fp16Round(v);
    }
    std::vector<float> c_ref(static_cast<size_t>(m * n));
    kernels::gemmF32(m, n, k, a.data(), k, b.data(), n, c_ref.data(),
                     n);
    EXPECT_TRUE(bitsEqual(c_fp16, c_ref));
}

TEST(KernelsGemm, RowGatherMapMatchesMaterializedGather)
{
    Rng rng(14);
    const int64_t src_rows = 12, m = 7, n = 19, k = 23;
    const std::vector<float> a = randomBuf(rng, src_rows * k);
    const std::vector<float> b = randomBuf(rng, k * n);
    const int64_t map[] = {3, 0, 11, 5, 5, 9, 1};

    std::vector<float> c_map(static_cast<size_t>(m * n));
    kernels::gemmF32(m, n, k, a.data(), k, b.data(), n, c_map.data(),
                     n, false, map);

    std::vector<float> gathered(static_cast<size_t>(m * k));
    for (int64_t i = 0; i < m; ++i) {
        std::memcpy(&gathered[static_cast<size_t>(i * k)],
                    &a[static_cast<size_t>(map[i] * k)],
                    static_cast<size_t>(k) * sizeof(float));
    }
    std::vector<float> c_ref(static_cast<size_t>(m * n));
    kernels::gemmF32(m, n, k, gathered.data(), k, b.data(), n,
                     c_ref.data(), n);
    EXPECT_TRUE(bitsEqual(c_map, c_ref));
}

TEST(KernelsGemm, AccumulateAddsOntoExistingC)
{
    Rng rng(15);
    const int64_t m = 33, n = 41, k = 29;
    const std::vector<float> a = randomBuf(rng, m * k);
    const std::vector<float> b = randomBuf(rng, k * n);
    const std::vector<float> seed_c = randomBuf(rng, m * n);

    std::vector<float> c_acc = seed_c;
    kernels::gemmF32(m, n, k, a.data(), k, b.data(), n, c_acc.data(),
                     n, false, nullptr, /*accumulate=*/true);

    // Naive reference accumulates into whatever C holds.
    std::vector<float> c_ref = seed_c;
    reference::gemmNaiveF32(m, n, k, a.data(), k, b.data(), n,
                          c_ref.data(), n);
    EXPECT_TRUE(bitsEqual(c_acc, c_ref));
}

TEST(KernelsGemm, ThreadCountBitIdentity)
{
    // Large enough to cross the parallel-dispatch threshold with
    // several M blocks.
    Rng rng(16);
    const int64_t m = 300, n = 96, k = 128;
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
    // ops.h dot is compiled without the kernel clones, so its
    // contraction can differ from dot4's; anchor the kernel's values
    // to it within float tolerance.
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

TEST(KernelsInt8, MatchesReferenceTripleLoop)
{
    Rng rng(19);
    const int64_t m = 13, n = 21, k = 31;
    std::vector<int8_t> a(static_cast<size_t>(m * k));
    std::vector<int8_t> bt(static_cast<size_t>(n * k));
    for (auto &v : a) {
        v = static_cast<int8_t>(
            static_cast<int64_t>(rng.uniformInt(255)) - 127);
    }
    for (auto &v : bt) {
        v = static_cast<int8_t>(
            static_cast<int64_t>(rng.uniformInt(255)) - 127);
    }
    const std::vector<float> as = randomBuf(rng, m);
    const std::vector<float> bs = randomBuf(rng, n);

    std::vector<float> c(static_cast<size_t>(m * n));
    kernels::gemmInt8S32(m, n, k, a.data(), as.data(), bt.data(),
                         bs.data(), c.data(), n);

    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            int32_t acc = 0;
            for (int64_t p = 0; p < k; ++p) {
                acc += static_cast<int32_t>(a[static_cast<size_t>(
                           i * k + p)]) *
                    static_cast<int32_t>(
                           bt[static_cast<size_t>(j * k + p)]);
            }
            const float want = static_cast<float>(acc) *
                as[static_cast<size_t>(i)] * bs[static_cast<size_t>(j)];
            EXPECT_EQ(c[static_cast<size_t>(i * n + j)], want);
        }
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

namespace
{

/** RAII math-backend override (restores the ambient backend). */
class MathBackendGuard
{
  public:
    explicit MathBackendGuard(kernels::MathBackend b)
        : prev_(kernels::activeMathBackend())
    {
        kernels::setMathBackend(b);
    }
    ~MathBackendGuard() { kernels::setMathBackend(prev_); }

  private:
    kernels::MathBackend prev_;
};

} // namespace

TEST(SfuKernels, VectorExpTracksLibmAtUlpScale)
{
    MathBackendGuard guard(kernels::MathBackend::Vector);
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
    std::vector<float> got = xs;
    kernels::expRowsF32(1, static_cast<int64_t>(got.size()), got.data(),
                        static_cast<int64_t>(got.size()));
    for (size_t i = 0; i < xs.size(); ++i) {
        const double want = std::exp(static_cast<double>(xs[i]));
        EXPECT_NEAR(got[i], want, 5e-7 * want) << "x=" << xs[i];
    }
}

TEST(SfuKernels, VectorExpSpecialValues)
{
    MathBackendGuard guard(kernels::MathBackend::Vector);
    constexpr float inf = std::numeric_limits<float>::infinity();
    float v[6] = {std::numeric_limits<float>::quiet_NaN(), -inf, inf,
                  0.0f, -87.0f, -1e30f};
    kernels::expRowsF32(1, 6, v, 6);
    EXPECT_TRUE(std::isnan(v[0]));
    EXPECT_EQ(v[1], 0.0f);  // flush-to-zero below the clamp range
    EXPECT_GT(v[2], 1e38f); // saturates large but finite
    EXPECT_EQ(v[3], 1.0f);
    EXPECT_EQ(v[4], 0.0f); // below -86: flushed (never denormal)
    EXPECT_EQ(v[5], 0.0f); // softmax -1e30 masks give exactly 0
}

TEST(SfuKernels, SoftmaxExactBitIdenticalToHistoricalLoop)
{
    MathBackendGuard guard(kernels::MathBackend::Exact);
    Rng rng(32);
    const int64_t rows = 9, cols = 37;
    std::vector<float> x = randomBuf(rng, rows * cols);
    std::vector<float> ref = x;
    kernels::softmaxRowsF32(rows, cols, x.data(), cols);
    // The pre-SFU-tier tensor/ops.cc loop, verbatim.
    for (int64_t i = 0; i < rows; ++i) {
        float *row = ref.data() + i * cols;
        float mx = row[0];
        for (int64_t j = 1; j < cols; ++j) {
            mx = std::max(mx, row[j]);
        }
        float sum = 0.0f;
        for (int64_t j = 0; j < cols; ++j) {
            row[j] = std::exp(row[j] - mx);
            sum += row[j];
        }
        const float inv = 1.0f / sum;
        for (int64_t j = 0; j < cols; ++j) {
            row[j] *= inv;
        }
    }
    EXPECT_TRUE(bitsEqual(x, ref));
}

TEST(SfuKernels, SoftmaxVectorTracksExact)
{
    Rng rng(33);
    for (int64_t cols : {1, 3, 7, 8, 64, 129}) {
        const int64_t rows = 5;
        std::vector<float> base(static_cast<size_t>(rows * cols));
        for (auto &v : base) {
            v = static_cast<float>(rng.gaussian(0.0, 3.0));
        }
        std::vector<float> exact = base, vec = base;
        {
            MathBackendGuard g(kernels::MathBackend::Exact);
            kernels::softmaxRowsF32(rows, cols, exact.data(), cols);
        }
        {
            MathBackendGuard g(kernels::MathBackend::Vector);
            kernels::softmaxRowsF32(rows, cols, vec.data(), cols);
        }
        for (int64_t i = 0; i < rows; ++i) {
            float sum = 0.0f;
            for (int64_t j = 0; j < cols; ++j) {
                const size_t at = static_cast<size_t>(i * cols + j);
                EXPECT_NEAR(vec[at], exact[at], 2e-6)
                    << "cols=" << cols << " (" << i << "," << j << ")";
                sum += vec[at];
            }
            EXPECT_NEAR(sum, 1.0f, 1e-5);
        }
    }
}

TEST(SfuKernels, SoftmaxVectorPropagatesNaNForAllMaskedRows)
{
    MathBackendGuard guard(kernels::MathBackend::Vector);
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
    for (kernels::MathBackend b :
         {kernels::MathBackend::Exact, kernels::MathBackend::Vector}) {
        MathBackendGuard guard(b);
        float sentinel[3] = {1.0f, 2.0f, 3.0f};
        kernels::softmaxRowsF32(0, 3, sentinel, 3);
        kernels::softmaxRowsF32(3, 0, sentinel, 0);
        EXPECT_EQ(sentinel[0], 1.0f);
        EXPECT_EQ(sentinel[1], 2.0f);
        EXPECT_EQ(sentinel[2], 3.0f);
        EXPECT_EQ(kernels::expBiasedSumF32(sentinel, 0, 0.0f), 0.0f);
        kernels::expRowsF32(0, 3, sentinel, 3);
        EXPECT_EQ(sentinel[0], 1.0f);
    }
}

TEST(SfuKernels, ExpBiasedSumExactMatchesHistoricalReadoutLoop)
{
    MathBackendGuard guard(kernels::MathBackend::Exact);
    Rng rng(34);
    std::vector<float> x = randomBuf(rng, 61);
    std::vector<float> ref = x;
    float mx = -1e30f;
    for (float v : x) {
        mx = std::max(mx, v);
    }
    const float got_sum =
        kernels::expBiasedSumF32(x.data(), 61, mx);
    float want_sum = 0.0f;
    for (auto &v : ref) {
        v = std::exp(v - mx);
        want_sum += v;
    }
    EXPECT_EQ(got_sum, want_sum);
    EXPECT_TRUE(bitsEqual(x, ref));
}

TEST(SfuKernels, ActivationsVectorTracksExact)
{
    Rng rng(35);
    std::vector<float> base = randomBuf(rng, 513);
    base.push_back(30.0f); // deep saturation both sides
    base.push_back(-30.0f);
    const int64_t n = static_cast<int64_t>(base.size());
    std::vector<float> se = base, sv = base, ge = base, gv = base;
    {
        MathBackendGuard g(kernels::MathBackend::Exact);
        kernels::siluF32(se.data(), n);
        kernels::geluF32(ge.data(), n);
    }
    {
        MathBackendGuard g(kernels::MathBackend::Vector);
        kernels::siluF32(sv.data(), n);
        kernels::geluF32(gv.data(), n);
    }
    for (size_t i = 0; i < base.size(); ++i) {
        const double tol =
            1e-6 * (1.0 + std::abs(static_cast<double>(base[i])));
        EXPECT_NEAR(sv[i], se[i], tol) << "silu x=" << base[i];
        EXPECT_NEAR(gv[i], ge[i], tol) << "gelu x=" << base[i];
    }
}

TEST(SfuKernels, RmsNormVectorTracksExact)
{
    Rng rng(36);
    const int64_t rows = 4, cols = 129;
    std::vector<float> base = randomBuf(rng, rows * cols);
    std::vector<float> gain = randomBuf(rng, cols);
    std::vector<float> exact = base, vec = base;
    {
        MathBackendGuard g(kernels::MathBackend::Exact);
        kernels::rmsNormRowsF32(rows, cols, exact.data(), cols,
                                gain.data(), 1e-6f);
    }
    {
        MathBackendGuard g(kernels::MathBackend::Vector);
        kernels::rmsNormRowsF32(rows, cols, vec.data(), cols,
                                gain.data(), 1e-6f);
    }
    for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_NEAR(vec[i], exact[i],
                    1e-5 *
                        (1.0 + std::abs(static_cast<double>(exact[i]))));
    }
}

TEST(SfuKernels, SimGatherExactBitIdenticalToPrenormCosine)
{
    MathBackendGuard guard(kernels::MathBackend::Exact);
    Rng rng(37);
    const int64_t rows = 12, n = 32;
    const std::vector<float> pack = randomBuf(rng, rows * n);
    std::vector<float> norms(static_cast<size_t>(rows));
    kernels::l2NormRowsF32(pack.data(), n, rows, n, norms.data());
    const int64_t cand[] = {3, 0, 11, 7, 7, 2};
    std::vector<float> sims(6);
    kernels::simGatherF32(pack.data(), norms[0], pack.data(), n,
                          norms.data(), cand, 6, n, sims.data());
    for (int64_t c = 0; c < 6; ++c) {
        const float want = cosineSimilarityPrenorm(
            pack.data(), norms[0], pack.data() + cand[c] * n,
            norms[static_cast<size_t>(cand[c])], n);
        EXPECT_EQ(sims[static_cast<size_t>(c)], want);
        EXPECT_EQ(norms[static_cast<size_t>(c)],
                  l2Norm(pack.data() + c * n, n));
    }
    EXPECT_NEAR(sims[1], 1.0f, 1e-6); // cand[1] == 0: key vs itself
}

TEST(SfuKernels, SimGatherVectorTracksExact)
{
    Rng rng(38);
    for (int64_t n : {8, 32, 33}) {
        const int64_t rows = 9;
        const std::vector<float> pack = randomBuf(rng, rows * n);
        std::vector<float> norms(static_cast<size_t>(rows));
        std::vector<float> norms_vec(static_cast<size_t>(rows));
        const int64_t cand[] = {1, 2, 3, 4, 5, 6, 7, 8};
        std::vector<float> exact(8), vec(8);
        {
            MathBackendGuard g(kernels::MathBackend::Exact);
            kernels::l2NormRowsF32(pack.data(), n, rows, n,
                                   norms.data());
            kernels::simGatherF32(pack.data(), norms[0], pack.data(),
                                  n, norms.data(), cand, 8, n,
                                  exact.data());
        }
        {
            MathBackendGuard g(kernels::MathBackend::Vector);
            kernels::l2NormRowsF32(pack.data(), n, rows, n,
                                   norms_vec.data());
            kernels::simGatherF32(pack.data(), norms_vec[0],
                                  pack.data(), n, norms_vec.data(),
                                  cand, 8, n, vec.data());
        }
        for (size_t c = 0; c < 8; ++c) {
            EXPECT_NEAR(vec[c], exact[c], 1e-5)
                << "n=" << n << " cand=" << c;
        }
        // Zero-norm candidates never match on either backend.
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
    // Large enough to cross the row fan-out threshold on both
    // backends; per-row work is independent, so results must be
    // bit-identical at every pool width.
    Rng rng(39);
    const int64_t rows = 300, cols = 300;
    const std::vector<float> base = randomBuf(rng, rows * cols);
    for (kernels::MathBackend b :
         {kernels::MathBackend::Exact, kernels::MathBackend::Vector}) {
        MathBackendGuard guard(b);
        std::vector<float> c1 = base, c4 = base;
        ThreadPool::setGlobalThreads(1);
        kernels::softmaxRowsF32(rows, cols, c1.data(), cols);
        ThreadPool::setGlobalThreads(4);
        kernels::softmaxRowsF32(rows, cols, c4.data(), cols);
        ThreadPool::setGlobalThreads(0);
        EXPECT_TRUE(bitsEqual(c1, c4))
            << kernels::mathBackendName(b);

        std::vector<float> r1 = base, r4 = base;
        ThreadPool::setGlobalThreads(1);
        kernels::rmsNormRowsF32(rows, cols, r1.data(), cols, nullptr,
                                1e-6f);
        ThreadPool::setGlobalThreads(4);
        kernels::rmsNormRowsF32(rows, cols, r4.data(), cols, nullptr,
                                1e-6f);
        ThreadPool::setGlobalThreads(0);
        EXPECT_TRUE(bitsEqual(r1, r4))
            << kernels::mathBackendName(b);
    }
}

TEST(SfuKernels, MathBackendNamesRoundTrip)
{
    kernels::MathBackend b;
    EXPECT_TRUE(kernels::parseMathBackend("exact", b));
    EXPECT_EQ(b, kernels::MathBackend::Exact);
    EXPECT_TRUE(kernels::parseMathBackend("vector", b));
    EXPECT_EQ(b, kernels::MathBackend::Vector);
    EXPECT_FALSE(kernels::parseMathBackend("fast", b));
    EXPECT_FALSE(kernels::parseMathBackend("", b));
    EXPECT_STREQ(kernels::mathBackendName(kernels::MathBackend::Exact),
                 "exact");
    EXPECT_STREQ(
        kernels::mathBackendName(kernels::MathBackend::Vector),
        "vector");
}

TEST(SfuKernels, MathBackendFollowsEnvironment)
{
    // The ambient backend must match FOCUS_MATH_BACKEND (Exact when
    // unset) — this runs in both CI matrix legs, so it pins the env
    // initialization path for each value.
    kernels::MathBackend want = kernels::MathBackend::Exact;
    if (const char *env = std::getenv("FOCUS_MATH_BACKEND")) {
        if (*env != '\0') {
            ASSERT_TRUE(kernels::parseMathBackend(env, want))
                << "unparseable FOCUS_MATH_BACKEND in test env";
        }
    }
    EXPECT_EQ(kernels::activeMathBackend(), want);
}

TEST(SfuKernels, OpsSoftmaxDispatchesOnMathBackend)
{
    // Through the tensor/ops.h entry point: the two backends must
    // agree to tolerance but are not expected to be bit-identical.
    Rng rng(40);
    Tensor base(6, 50);
    for (int64_t i = 0; i < base.numel(); ++i) {
        base.data()[i] = static_cast<float>(rng.gaussian(0.0, 2.0));
    }
    Tensor te = base, tv = base;
    {
        MathBackendGuard g(kernels::MathBackend::Exact);
        softmaxRows(te);
    }
    {
        MathBackendGuard g(kernels::MathBackend::Vector);
        softmaxRows(tv);
    }
    EXPECT_LT(maxAbsDiff(tv, te), 2e-6);
}

TEST(KernelsQuant, GemmInt8TensorPathUnchanged)
{
    // tensor/quant.cc gemmInt8 now routes through the kernel layer;
    // its int8 result must still track the fp32 product closely
    // (same bound as tests/test_tensor.cc used pre-refactor).
    Rng rng(22);
    Tensor a(12, 40), b(40, 9);
    for (int64_t i = 0; i < a.numel(); ++i) {
        a.data()[i] = static_cast<float>(rng.gaussian());
    }
    for (int64_t i = 0; i < b.numel(); ++i) {
        b.data()[i] = static_cast<float>(rng.gaussian());
    }
    Tensor cf, cq;
    gemm(a, b, cf);
    gemmInt8(a, b, cq);
    EXPECT_LT(relativeError(cq, cf), 0.05);
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
    Rng rng(51);
    for (const HeadSlice &hs : kHeadSlices) {
        for (int64_t rows : attentionRowCounts()) {
            const std::vector<float> q = randomBuf(rng, rows * hs.ld);
            const std::vector<float> k = randomBuf(rng, rows * hs.ld);
            const float scale = 0.17677669f;
            const int64_t ldo = rows + 3;
            std::vector<float> got(static_cast<size_t>(rows * ldo),
                                   kSentinel);
            kernels::qkScoresCausalF32(q.data() + hs.c0, hs.ld,
                                       k.data() + hs.c0, hs.ld, rows,
                                       hs.hd, scale, got.data(), ldo);
            std::vector<float> want(static_cast<size_t>(ldo));
            for (int64_t i = 0; i < rows; ++i) {
                std::fill(want.begin(), want.end(), kSentinel);
                kernels::dotRowsScaled(q.data() + i * hs.ld + hs.c0,
                                       k.data() + hs.c0, hs.ld, i + 1,
                                       hs.hd, scale, want.data());
                ASSERT_EQ(std::memcmp(got.data() + i * ldo, want.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << "rows=" << rows << " hd=" << hs.hd
                    << " ld=" << hs.ld << " row " << i;
            }
        }
    }
}

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
                kernels::gemmF32(m, n, rows, p.data(), rows, v.data(),
                                 ldv, want.data(), ldo, false, rowmap);
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
    for (kernels::MathBackend b :
         {kernels::MathBackend::Exact, kernels::MathBackend::Vector}) {
        MathBackendGuard guard(b);
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
                    << kernels::mathBackendName(b) << " rows=" << rows
                    << " ld=" << ld;
            }
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
    for (kernels::MathBackend b :
         {kernels::MathBackend::Exact, kernels::MathBackend::Vector}) {
        MathBackendGuard guard(b);
        EXPECT_TRUE(bitsEqual(run(1), run(4)))
            << kernels::mathBackendName(b);
    }
}
