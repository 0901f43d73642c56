/**
 * @file
 * Reference GEMM loops (the pre-kernel-layer implementations): the
 * exactness oracles tests/test_kernels.cc checks the blocked kernels
 * of tensor/kernels.h against.
 *
 * The naive product carries the same target_clones list as the
 * blocked kernels, so on any machine the loader picks the same ISA
 * for both and the compiler contracts mul+add into FMA the same way
 * (docs/KERNELS.md); without it the two would differ in the last bit
 * on FMA hardware.  Include from one translation unit only.
 */

#ifndef FOCUS_TESTS_REFERENCE_GEMM_H
#define FOCUS_TESTS_REFERENCE_GEMM_H

#include <cstdint>

#include "common/half.h"

#ifndef __has_attribute
#define __has_attribute(x) 0
#endif
#if defined(__x86_64__) && __has_attribute(target_clones) &&          \
    defined(__linux__)
#define FOCUS_REFERENCE_CLONES                                        \
    __attribute__((                                                   \
        target_clones("default", "avx2", "arch=x86-64-v3")))
#else
#define FOCUS_REFERENCE_CLONES
#endif

namespace focus
{
namespace reference
{

/**
 * C += A * B, naive ikj loop (zero-skip on A elements); zero C first
 * for a plain product.  With @p fp16_inputs both operands are rounded
 * through binary16 per multiply.
 */
FOCUS_REFERENCE_CLONES void
gemmNaiveF32(int64_t m, int64_t n, int64_t k, const float *a,
             int64_t lda, const float *b, int64_t ldb, float *c,
             int64_t ldc, bool fp16_inputs = false)
{
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a + i * lda;
        float *crow = c + i * ldc;
        for (int64_t kk = 0; kk < k; ++kk) {
            float av = arow[kk];
            if (fp16_inputs) {
                av = fp16Round(av);
            }
            if (av == 0.0f) {
                continue;
            }
            const float *brow = b + kk * ldb;
            if (fp16_inputs) {
                for (int64_t j = 0; j < n; ++j) {
                    crow[j] += av * fp16Round(brow[j]);
                }
            } else {
                for (int64_t j = 0; j < n; ++j) {
                    crow[j] += av * brow[j];
                }
            }
        }
    }
}

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_GEMM_H
