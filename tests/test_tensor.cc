/**
 * @file
 * Unit tests for the tensor substrate: Tensor, GEMM, softmax,
 * RMSNorm, similarity kernels, INT8 quantization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace focus
{
namespace
{

Tensor
randomTensor(Rng &rng, int64_t r, int64_t c, double scale = 1.0)
{
    Tensor t(r, c);
    for (int64_t i = 0; i < t.numel(); ++i) {
        t.data()[i] = static_cast<float>(rng.gaussian(0.0, scale));
    }
    return t;
}

TEST(Tensor, ShapeAndIndexing)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 4);
    t(2, 3) = 7.0f;
    EXPECT_EQ(t.row(2)[3], 7.0f);
    EXPECT_EQ(t.numel(), 12);
}

TEST(Tensor, Rank3Indexing)
{
    Tensor t(2, 3, 4);
    t(1, 2, 3) = 5.0f;
    EXPECT_EQ(t(1, 2, 3), 5.0f);
    EXPECT_EQ(t.numel(), 24);
}

TEST(Tensor, Reshape)
{
    Tensor t(2, 6);
    t(1, 5) = 9.0f;
    Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.rows(), 3);
    EXPECT_EQ(r(2, 3), 9.0f);
}

TEST(Tensor, SliceRows)
{
    Tensor t(4, 2);
    for (int64_t i = 0; i < 4; ++i) {
        t(i, 0) = static_cast<float>(i);
    }
    Tensor s = t.sliceRows(1, 3);
    EXPECT_EQ(s.rows(), 2);
    EXPECT_EQ(s(0, 0), 1.0f);
    EXPECT_EQ(s(1, 0), 2.0f);
}

TEST(Tensor, Fp16RoundingChangesPrecision)
{
    Tensor t(1, 1);
    t(0, 0) = 1.0001f;
    t.roundToFp16();
    EXPECT_NE(t(0, 0), 1.0001f);
    EXPECT_NEAR(t(0, 0), 1.0f, 1e-3);
}

TEST(Gemm, MatchesNaiveReference)
{
    Rng rng(3);
    const Tensor a = randomTensor(rng, 7, 5);
    const Tensor b = randomTensor(rng, 5, 9);
    Tensor c;
    gemm(a, b, c);
    for (int64_t i = 0; i < 7; ++i) {
        for (int64_t j = 0; j < 9; ++j) {
            float ref = 0.0f;
            for (int64_t k = 0; k < 5; ++k) {
                ref += a(i, k) * b(k, j);
            }
            EXPECT_NEAR(c(i, j), ref, 1e-4);
        }
    }
}

TEST(Gemm, IdentityIsNoop)
{
    Rng rng(4);
    const Tensor a = randomTensor(rng, 6, 6);
    Tensor eye(6, 6);
    for (int64_t i = 0; i < 6; ++i) {
        eye(i, i) = 1.0f;
    }
    Tensor c;
    gemm(a, eye, c);
    EXPECT_LT(maxAbsDiff(a, c), 1e-6);
}

TEST(Softmax, RowsSumToOne)
{
    Rng rng(6);
    Tensor t = randomTensor(rng, 5, 11, 3.0);
    softmaxRows(t);
    for (int64_t i = 0; i < 5; ++i) {
        float sum = 0.0f;
        for (int64_t j = 0; j < 11; ++j) {
            EXPECT_GE(t(i, j), 0.0f);
            sum += t(i, j);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
}

TEST(Softmax, StableUnderLargeLogits)
{
    Tensor t(1, 3);
    t(0, 0) = 1000.0f;
    t(0, 1) = 999.0f;
    t(0, 2) = -1000.0f;
    softmaxRows(t);
    EXPECT_FALSE(std::isnan(t(0, 0)));
    EXPECT_GT(t(0, 0), t(0, 1));
    EXPECT_NEAR(t(0, 2), 0.0f, 1e-6);
}

TEST(Softmax, MaskedEntriesGetZero)
{
    Tensor t(1, 4);
    Tensor mask(1, 4);
    mask(0, 3) = -1e30f;
    softmaxRowsMasked(t, mask);
    EXPECT_NEAR(t(0, 3), 0.0f, 1e-6);
    EXPECT_NEAR(t(0, 0), 1.0f / 3.0f, 1e-5);
}

TEST(Softmax, ZeroColumnTensorIsNoop)
{
    // Historical bug: the row loop read row[0] of an empty row.
    Tensor t(3, 0);
    softmaxRows(t);
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.numel(), 0);
}

TEST(Softmax, ZeroRowTensorIsNoop)
{
    Tensor t(0, 7);
    softmaxRows(t);
    EXPECT_EQ(t.rows(), 0);
}

TEST(Softmax, SingleColumnRowsBecomeOne)
{
    Tensor t(3, 1);
    t(0, 0) = -50.0f;
    t(1, 0) = 0.0f;
    t(2, 0) = 1234.0f;
    softmaxRows(t);
    for (int64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(t(i, 0), 1.0f);
    }
}

TEST(Softmax, MaskedValidatesRankBeforeMutating)
{
    // Rank must be rejected up front — historically the panic fired
    // inside softmaxRows only after the mask had been added.
    Tensor t(2, 3, 4);
    Tensor mask(2, 3, 4);
    EXPECT_DEATH(softmaxRowsMasked(t, mask), "rank-2");
}

TEST(Softmax, AllMaskedRowPropagatesNaN)
{
    constexpr float ninf = -std::numeric_limits<float>::infinity();
    Tensor t(2, 3);
    Tensor mask(2, 3);
    for (int64_t j = 0; j < 3; ++j) {
        mask(0, j) = ninf; // row 0: everything masked
    }
    softmaxRowsMasked(t, mask);
    for (int64_t j = 0; j < 3; ++j) {
        // -inf - (-inf) = NaN must propagate, not silently become a
        // uniform (or garbage) distribution.
        EXPECT_TRUE(std::isnan(t(0, j))) << "col " << j;
        EXPECT_NEAR(t(1, j), 1.0f / 3.0f, 1e-5);
    }
}

TEST(RmsNorm, UnitRmsAfterNorm)
{
    Rng rng(7);
    Tensor t = randomTensor(rng, 4, 64, 5.0);
    Tensor gain;
    rmsNormRows(t, gain);
    for (int64_t i = 0; i < 4; ++i) {
        float ms = 0.0f;
        for (int64_t j = 0; j < 64; ++j) {
            ms += t(i, j) * t(i, j);
        }
        EXPECT_NEAR(ms / 64.0f, 1.0f, 1e-3);
    }
}

TEST(RmsNorm, GainApplies)
{
    Tensor t(1, 2);
    t(0, 0) = 3.0f;
    t(0, 1) = 3.0f;
    Tensor gain(2);
    gain(0) = 2.0f;
    gain(1) = 1.0f;
    rmsNormRows(t, gain);
    EXPECT_NEAR(t(0, 0) / t(0, 1), 2.0f, 1e-5);
}

TEST(RmsNorm, MismatchedGainPanics)
{
    // Historical bug: a non-empty gain of the wrong length was
    // silently ignored, producing un-gained output.
    Tensor t(2, 4);
    t.fill(1.0f);
    Tensor gain(3);
    gain.fill(2.0f);
    EXPECT_DEATH(rmsNormRows(t, gain), "gain numel");
}

TEST(RmsNorm, DegenerateShapesAreNoops)
{
    Tensor empty_gain;
    Tensor zero_cols(4, 0);
    rmsNormRows(zero_cols, empty_gain); // historically 0/0 -> NaN fill
    EXPECT_EQ(zero_cols.numel(), 0);
    Tensor zero_rows(0, 5);
    rmsNormRows(zero_rows, empty_gain);
    EXPECT_EQ(zero_rows.rows(), 0);
    // One column: normalizes to +/- sqrt(1 + eps-ish) sign-preserving.
    Tensor one(2, 1);
    one(0, 0) = -7.0f;
    one(1, 0) = 0.5f;
    rmsNormRows(one, empty_gain);
    EXPECT_NEAR(one(0, 0), -1.0f, 1e-5);
    EXPECT_NEAR(one(1, 0), 1.0f, 1e-5);
}

TEST(Activations, SiluAndGeluShapes)
{
    Tensor t(1, 3);
    t(0, 0) = 0.0f;
    t(0, 1) = 10.0f;
    t(0, 2) = -10.0f;
    Tensor g = t;
    siluInPlace(t);
    EXPECT_NEAR(t(0, 0), 0.0f, 1e-6);
    EXPECT_NEAR(t(0, 1), 10.0f, 1e-3);
    EXPECT_NEAR(t(0, 2), 0.0f, 1e-3);
    geluInPlace(g);
    EXPECT_NEAR(g(0, 0), 0.0f, 1e-6);
    EXPECT_NEAR(g(0, 1), 10.0f, 1e-3);
}

TEST(Activations, EmptyTensorsAreNoops)
{
    Tensor a(0, 8);
    siluInPlace(a);
    geluInPlace(a);
    EXPECT_EQ(a.numel(), 0);
    Tensor b(8, 0);
    siluInPlace(b);
    geluInPlace(b);
    EXPECT_EQ(b.numel(), 0);
}

TEST(Similarity, CosineOfParallelVectorsIsOne)
{
    const float a[4] = {1, 2, 3, 4};
    const float b[4] = {2, 4, 6, 8};
    EXPECT_NEAR(cosineSimilarity(a, b, 4), 1.0f, 1e-6);
}

TEST(Similarity, CosineOfOrthogonalVectorsIsZero)
{
    const float a[2] = {1, 0};
    const float b[2] = {0, 1};
    EXPECT_NEAR(cosineSimilarity(a, b, 2), 0.0f, 1e-6);
}

TEST(Similarity, ZeroVectorNeverMatches)
{
    const float a[3] = {0, 0, 0};
    const float b[3] = {1, 2, 3};
    EXPECT_EQ(cosineSimilarity(a, b, 3), 0.0f);
}

TEST(Similarity, PrenormAgreesWithDirect)
{
    Rng rng(8);
    Tensor t = randomTensor(rng, 2, 32);
    const float na = l2Norm(t.row(0), 32);
    const float nb = l2Norm(t.row(1), 32);
    EXPECT_NEAR(cosineSimilarity(t.row(0), t.row(1), 32),
                cosineSimilarityPrenorm(t.row(0), na, t.row(1), nb, 32),
                1e-6);
}

TEST(Quant, RoundTripErrorBounded)
{
    Rng rng(9);
    const Tensor t = randomTensor(rng, 16, 64, 2.0);
    const Tensor q = int8RoundTrip(t);
    // Max error per element is scale/2 = absmax/254.
    for (int64_t i = 0; i < 16; ++i) {
        float absmax = 0.0f;
        for (int64_t j = 0; j < 64; ++j) {
            absmax = std::max(absmax, std::abs(t(i, j)));
        }
        for (int64_t j = 0; j < 64; ++j) {
            EXPECT_LE(std::abs(t(i, j) - q(i, j)),
                      absmax / 127.0f * 0.5f + 1e-6f);
        }
    }
}

TEST(Quant, Int8GemmApproximatesFloatGemm)
{
    Rng rng(10);
    const Tensor a = randomTensor(rng, 8, 32);
    const Tensor b = randomTensor(rng, 32, 8);
    Tensor cf, cq;
    gemm(a, b, cf);
    gemmInt8(a, b, cq);
    EXPECT_LT(relativeError(cq, cf), 0.05);
}

TEST(Quant, ScalesArePerRow)
{
    Tensor t(2, 2);
    t(0, 0) = 100.0f;
    t(0, 1) = -50.0f;
    t(1, 0) = 0.01f;
    t(1, 1) = 0.005f;
    const QuantizedMatrix q = quantizeRows(t);
    EXPECT_NEAR(q.scales[0], 100.0f / 127.0f, 1e-5);
    EXPECT_NEAR(q.scales[1], 0.01f / 127.0f, 1e-7);
    // Small-magnitude row keeps relative precision.
    const Tensor d = dequantize(q);
    EXPECT_NEAR(d(1, 1), 0.005f, 1e-4);
}

} // namespace
} // namespace focus
