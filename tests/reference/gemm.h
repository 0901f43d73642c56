/**
 * @file
 * Reference GEMM loops (the pre-kernel-layer implementations): the
 * exactness oracles tests/test_kernels.cc checks the blocked kernels
 * of tensor/kernels.h against.
 *
 * The naive product fuses each multiply-add with std::fma, as the
 * blocked microkernels do, and is compiled once at the baseline ISA:
 * on an FMA host the kernels run their x86-64-v3 or x86-64-v4 clone,
 * so the KernelsGemm tests check that clone against portable
 * arithmetic (docs/KERNELS.md).  Include from one translation unit only.
 */

#ifndef FOCUS_TESTS_REFERENCE_GEMM_H
#define FOCUS_TESTS_REFERENCE_GEMM_H

#include <cmath>
#include <cstdint>

namespace focus
{
namespace reference
{

/**
 * C += A * B, naive ikj loop (zero-skip on A elements); zero C first
 * for a plain product.
 */
void
gemmNaiveF32(int64_t m, int64_t n, int64_t k, const float *a,
             int64_t lda, const float *b, int64_t ldb, float *c,
             int64_t ldc)
{
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a + i * lda;
        float *crow = c + i * ldc;
        for (int64_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f) {
                continue;
            }
            const float *brow = b + kk * ldb;
            for (int64_t j = 0; j < n; ++j) {
                crow[j] = std::fma(av, brow[j], crow[j]);
            }
        }
    }
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_GEMM_H
