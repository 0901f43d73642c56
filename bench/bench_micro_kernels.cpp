/**
 * @file
 * Micro-kernel throughput benchmarks (google-benchmark): the hot
 * functional kernels underneath the reproduction — GEMM, the causal
 * attention interior (QK^T, softmax, P*V), cosine similarity
 * matching, similarity gather, streaming top-k, offset coding, and
 * the DRAM model.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/parse.h"
#include "common/rng.h"
#include "focus/offset_encoding.h"
#include "focus/sec.h"
#include "focus/sic.h"
#include "runtime/thread_pool.h"
#include "sim/accel_model.h"
#include "sim/dram.h"
#include "sim/systolic.h"
#include "sim/trace.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "workload/profiles.h"

using namespace focus;

namespace
{

Tensor
randomTensor(Rng &rng, int64_t r, int64_t c)
{
    Tensor t(r, c);
    for (int64_t i = 0; i < t.numel(); ++i) {
        t.data()[i] = static_cast<float>(rng.gaussian());
    }
    return t;
}

void
BM_Gemm(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    const Tensor a = randomTensor(rng, n, n);
    const Tensor b = randomTensor(rng, n, n);
    Tensor c;
    for (auto _ : state) {
        gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmFp16(benchmark::State &state)
{
    // fp16-input variant: operands rounded through binary16 during
    // packing (not per-FMA).
    const int64_t n = state.range(0);
    Rng rng(1);
    const Tensor a = randomTensor(rng, n, n);
    const Tensor b = randomTensor(rng, n, n);
    Tensor c;
    for (auto _ : state) {
        gemm(a, b, c, /*fp16_inputs=*/true);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmFp16)->Arg(64)->Arg(128);

void
BM_GemmInt8(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(2);
    const Tensor a = randomTensor(rng, n, n);
    const Tensor b = randomTensor(rng, n, n);
    Tensor c;
    for (auto _ : state) {
        gemmInt8(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128);

void
BM_Softmax(benchmark::State &state)
{
    // Row-wise softmax on an (n x n) score matrix — the attention
    // shape that dominates the post-GEMM fig9a profile.  Runs the
    // ambient math backend (vector by default in benches; see main).
    const int64_t n = state.range(0);
    Rng rng(7);
    const Tensor base = randomTensor(rng, n, n);
    for (auto _ : state) {
        Tensor t = base;
        softmaxRows(t);
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(256);

void
BM_SoftmaxExact(benchmark::State &state)
{
    // A/B reference: the historical libm scalar path through the
    // same dispatch FOCUS_MATH_BACKEND drives.
    const int64_t n = state.range(0);
    Rng rng(7);
    const Tensor base = randomTensor(rng, n, n);
    const kernels::MathBackend prev = kernels::activeMathBackend();
    kernels::setMathBackend(kernels::MathBackend::Exact);
    for (auto _ : state) {
        Tensor t = base;
        softmaxRows(t);
        benchmark::DoNotOptimize(t.data());
    }
    kernels::setMathBackend(prev);
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SoftmaxExact)->Arg(64)->Arg(256);

// ---- causal attention interior ----
//
// One head at the forwardBatch layout: head dim 32 inside packed
// two-head activations (row stride 64), at the video (810) and image
// (206) grid prompt lengths.  QK^T and P*V report MAC/s over the
// causal triangle; the softmax reports live (unmasked) entries/s.

constexpr int64_t kAttnHd = 32;
constexpr int64_t kAttnLd = 64;

double
causalEntries(int64_t rows)
{
    return 0.5 * static_cast<double>(rows) * static_cast<double>(rows + 1);
}

/** Scaled causal scores of a random head slice (rows x rows). */
Tensor
causalScores(Rng &rng, int64_t rows)
{
    const Tensor q = randomTensor(rng, rows, kAttnLd);
    const Tensor k = randomTensor(rng, rows, kAttnLd);
    Tensor p(rows, rows);
    kernels::qkScoresCausalF32(q.data(), kAttnLd, k.data(), kAttnLd, rows,
                               kAttnHd, 0.17677669f, p.data(), rows);
    return p;
}

void
BM_QkScoresCausal(benchmark::State &state)
{
    const int64_t rows = state.range(0);
    Rng rng(9);
    const Tensor q = randomTensor(rng, rows, kAttnLd);
    const Tensor k = randomTensor(rng, rows, kAttnLd);
    Tensor p(rows, rows);
    for (auto _ : state) {
        kernels::qkScoresCausalF32(q.data(), kAttnLd, k.data(), kAttnLd,
                                   rows, kAttnHd, 0.17677669f, p.data(),
                                   rows);
        benchmark::DoNotOptimize(p.data());
        benchmark::ClobberMemory();
    }
    state.counters["MAC/s"] = benchmark::Counter(
        causalEntries(rows) * kAttnHd,
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_QkScoresCausal)->Arg(206)->Arg(810);

void
BM_SoftmaxCausal(benchmark::State &state)
{
    // Re-normalizing the same rows costs what the first pass does.
    const int64_t rows = state.range(0);
    Rng rng(10);
    Tensor p = causalScores(rng, rows);
    for (auto _ : state) {
        kernels::softmaxCausalF32(rows, p.data(), rows);
        benchmark::DoNotOptimize(p.data());
        benchmark::ClobberMemory();
    }
    state.counters["elem/s"] = benchmark::Counter(
        causalEntries(rows), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SoftmaxCausal)->Arg(206)->Arg(810);

void
BM_PvCausal(benchmark::State &state)
{
    const int64_t rows = state.range(0);
    Rng rng(11);
    Tensor p = causalScores(rng, rows);
    kernels::softmaxCausalF32(rows, p.data(), rows);
    const Tensor v = randomTensor(rng, rows, kAttnLd);
    Tensor out(rows, kAttnLd);
    for (auto _ : state) {
        kernels::pvCausalF32(rows, kAttnHd, p.data(), rows, nullptr,
                             v.data(), kAttnLd, out.data(), kAttnLd);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["MAC/s"] = benchmark::Counter(
        causalEntries(rows) * kAttnHd,
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PvCausal)->Arg(206)->Arg(810);

void
BM_Silu(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(8);
    const Tensor base = randomTensor(rng, n, n);
    for (auto _ : state) {
        Tensor t = base;
        siluInPlace(t);
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Silu)->Arg(256);

void
BM_CosineSimilarity(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(3);
    const Tensor t = randomTensor(rng, 2, n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cosineSimilarity(t.row(0), t.row(1), n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CosineSimilarity)->Arg(8)->Arg(32)->Arg(128);

void
BM_SicGather(benchmark::State &state)
{
    const int frames = 8, h = 10, w = 10;
    Rng rng(4);
    std::vector<TokenCoord> coords;
    for (int f = 0; f < frames; ++f) {
        for (int r = 0; r < h; ++r) {
            for (int c = 0; c < w; ++c) {
                coords.push_back(TokenCoord{f, r, c});
            }
        }
    }
    const Tensor base = randomTensor(rng, frames * h * w, 64);
    SicConfig cfg;
    for (auto _ : state) {
        Tensor x = base;
        const SicResult res = sicGather(x, coords, cfg);
        benchmark::DoNotOptimize(res.unique_vectors);
    }
    state.SetItemsProcessed(state.iterations() * frames * h * w * 2);
}
BENCHMARK(BM_SicGather);

void
BM_SicGatherExact(benchmark::State &state)
{
    // A/B reference for the similarity-gather kernel: the historical
    // scalar cosine path.
    const int frames = 8, h = 10, w = 10;
    Rng rng(4);
    std::vector<TokenCoord> coords;
    for (int f = 0; f < frames; ++f) {
        for (int r = 0; r < h; ++r) {
            for (int c = 0; c < w; ++c) {
                coords.push_back(TokenCoord{f, r, c});
            }
        }
    }
    const Tensor base = randomTensor(rng, frames * h * w, 64);
    SicConfig cfg;
    const kernels::MathBackend prev = kernels::activeMathBackend();
    kernels::setMathBackend(kernels::MathBackend::Exact);
    for (auto _ : state) {
        Tensor x = base;
        const SicResult res = sicGather(x, coords, cfg);
        benchmark::DoNotOptimize(res.unique_vectors);
    }
    kernels::setMathBackend(prev);
    state.SetItemsProcessed(state.iterations() * frames * h * w * 2);
}
BENCHMARK(BM_SicGatherExact);

void
BM_StreamingTopK(benchmark::State &state)
{
    const int64_t m = state.range(0);
    Rng rng(5);
    std::vector<float> imp(static_cast<size_t>(m));
    for (auto &v : imp) {
        v = static_cast<float>(rng.uniform());
    }
    StreamingTopK sorter(32, m / 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sorter.select(imp));
    }
    state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_StreamingTopK)->Arg(800)->Arg(6400);

void
BM_OffsetCoding(benchmark::State &state)
{
    std::vector<int64_t> retained;
    Rng rng(6);
    int64_t pos = 0;
    for (int i = 0; i < 2000; ++i) {
        pos += 1 + static_cast<int64_t>(rng.uniformInt(9));
        retained.push_back(pos);
    }
    for (auto _ : state) {
        const auto enc = encodeOffsets(retained);
        benchmark::DoNotOptimize(decodeOffsets(enc));
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_OffsetCoding);

void
BM_DramRequests(benchmark::State &state)
{
    DramModel dram{DramConfig{}};
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.access(addr, 64, false));
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRequests);

void
BM_TimeGemmModel(benchmark::State &state)
{
    const AccelConfig cfg = AccelConfig::focus();
    FracSampler psi(nullptr, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            timeGemm(cfg, 6381, 3584, 3584, psi, true, true).cycles);
    }
}
BENCHMARK(BM_TimeGemmModel);

// ---- whole-trace cycle model ----

const WorkloadTrace &
microDenseTrace()
{
    static const WorkloadTrace tr = buildDenseTrace(
        modelProfile("Llava-Vid"), datasetProfile("VideoMME"));
    return tr;
}

const WorkloadTrace &
microFocusTrace()
{
    static const WorkloadTrace tr = [] {
        const ModelProfile mp = modelProfile("Llava-Vid");
        FunctionalAggregate agg;
        agg.reduced_layers = mp.layers;
        const size_t n = static_cast<size_t>(mp.layers);
        agg.keep_in.assign(n, 1.0);
        agg.keep_out.assign(n, 1.0);
        agg.psi_qkv.assign(n, 0.5);
        agg.psi_oproj.assign(n, 0.5);
        agg.psi_ffn.assign(n, 0.5);
        agg.psi_down.assign(n, 0.5);
        // Empirical per-tile distribution so the SIC sampling path
        // (not the mean-backed closed form) is what gets measured.
        agg.tile_fracs.resize(96);
        for (size_t i = 0; i < agg.tile_fracs.size(); ++i) {
            agg.tile_fracs[i] =
                0.1 + 0.8 * static_cast<double>(i) / 95.0;
        }
        return buildTrace(mp, datasetProfile("VideoMME"),
                          MethodConfig::focusFull(), agg);
    }();
    return tr;
}

void
BM_SimulateAccelDense(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulateAccelerator(AccelConfig::systolicArray(),
                                microDenseTrace())
                .cycles);
    }
}
BENCHMARK(BM_SimulateAccelDense);

void
BM_SimulateAccelFocus(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulateAccelerator(AccelConfig::focus(), microFocusTrace())
                .cycles);
    }
}
BENCHMARK(BM_SimulateAccelFocus);

} // namespace

// Custom main: kernel microbenches measure the functional kernels the
// pool's workers execute, so the pool defaults to a single thread
// here (the blocked GEMM would otherwise fan M blocks out and the
// per-kernel numbers would depend on the host's core count).
// --threads=N opts back in to a wider pool.  The SFU math backend
// defaults to vector in benches (FOCUS_MATH_BACKEND overrides) — the
// exact libm path is the ctest default and has its own *Exact rows.
int
main(int argc, char **argv)
{
    int threads = 1;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            threads = parsePositiveInt(argv[i] + 10, "--threads");
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    ThreadPool::setGlobalThreads(threads);
    if (std::getenv("FOCUS_MATH_BACKEND") == nullptr) {
        kernels::setMathBackend(kernels::MathBackend::Vector);
    }
    std::printf("# pool threads: %d, math backend: %s\n",
                ThreadPool::global().threads(),
                kernels::mathBackendName(kernels::activeMathBackend()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
