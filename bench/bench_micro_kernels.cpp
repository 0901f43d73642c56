/**
 * @file
 * Micro-kernel throughput benchmarks (google-benchmark): the hot
 * functional kernels underneath the reproduction — GEMM (square and at
 * the forward pass's shapes), fp16 activation rounding, the causal
 * attention interior (QK^T, softmax, P*V, and the streamed two-head
 * interior the forward pass runs), cosine similarity
 * matching, similarity gather, streaming top-k, and the cycle model
 * (one GEMM, and whole dense and Focus traces).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/parse.h"
#include "common/rng.h"
#include "focus/sec.h"
#include "focus/sic.h"
#include "runtime/thread_pool.h"
#include "sim/accel_model.h"
#include "sim/systolic.h"
#include "sim/trace.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
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
BM_GemmForward(benchmark::State &state)
{
    // The forward pass's projection shapes: M packed rows (412: two
    // image samples; 810: one video sample; 101: a batch shrunk by SEC
    // pruning) against a (K x N) weight: QKV/O-proj (64, 64), gate/up
    // (64, 256), down (256, 64).
    const int64_t m = state.range(0);
    const int64_t k = state.range(1);
    const int64_t n = state.range(2);
    Rng rng(2);
    const Tensor a = randomTensor(rng, m, k);
    const Tensor b = randomTensor(rng, k, n);
    Tensor c;
    for (auto _ : state) {
        gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.counters["MAC/s"] = benchmark::Counter(
        static_cast<double>(m * k * n),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmForward)
    ->ArgNames({"m", "k", "n"})
    ->ArgsProduct({{101, 412, 810}, {64}, {64, 256}})
    ->ArgsProduct({{101, 412, 810}, {256}, {64}});

void
BM_RoundFp16(benchmark::State &state)
{
    // Activation rounding of one (rows x d) block, as forwardBatch
    // rounds each normalized sample; re-rounding costs what the first
    // pass does.
    const int64_t rows = state.range(0);
    const int64_t d = state.range(1);
    Rng rng(12);
    Tensor t = randomTensor(rng, rows, d);
    for (auto _ : state) {
        t.roundToFp16();
        benchmark::DoNotOptimize(t.data());
        benchmark::ClobberMemory();
    }
    state.counters["elem/s"] = benchmark::Counter(
        static_cast<double>(rows * d),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_RoundFp16)->Args({412, 64});

void
BM_Softmax(benchmark::State &state)
{
    // Row-wise softmax on an (n x n) score matrix — the attention
    // shape that dominates the post-GEMM fig9a profile.
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

// ---- causal attention interior ----
//
// The forwardBatch layout: head dim 32 inside packed two-head
// activations (row stride 64), at the video (810) and image (206)
// grid prompt lengths.  The whole-matrix kernels time one head each,
// BM_CausalAttention both heads' streamed interior.  QK^T and P*V
// report MAC/s over the causal triangle; the softmax reports live
// (unmasked) entries/s.

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
BM_CausalAttention(benchmark::State &state)
{
    // The forward pass's whole two-head interior for one sample, as
    // forwardBatch runs it at a layer without SEC pruning: both key
    // panels, the text rows (the last 8, every profile's prompt
    // length), then the streamed blocks over every output row.
    // Reports causal QK^T + P*V MAC/s over both heads.
    const int64_t rows = state.range(0);
    constexpr int64_t kText = 8;
    Rng rng(13);
    const Tensor q = randomTensor(rng, rows, kAttnLd);
    const Tensor k = randomTensor(rng, rows, kAttnLd);
    const Tensor v = randomTensor(rng, rows, kAttnLd);
    kernels::CausalHeads att;
    att.q = q.data();
    att.k = k.data();
    att.v = v.data();
    att.ld = kAttnLd;
    att.rows = rows;
    att.heads = kAttnLd / kAttnHd;
    att.hd = kAttnHd;
    att.scale = 0.17677669f;
    std::vector<float> panels(
        static_cast<size_t>(kernels::keyPanelsSize(att)));
    Tensor text0(kText, rows), text1(kText, rows);
    float *text[] = {text0.data(), text1.data()};
    Tensor out(rows, kAttnLd);
    const int64_t s = rows - kText;
    for (auto _ : state) {
        kernels::packKeyPanelsF32(att, panels.data());
        kernels::causalTextRowsF32(att, panels.data(), s, text, rows);
        kernels::causalAttentionF32(att, panels.data(), s, text, rows,
                                    nullptr, rows, out.data(), kAttnLd);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["MAC/s"] = benchmark::Counter(
        2.0 * static_cast<double>(att.heads) * causalEntries(rows) *
            kAttnHd,
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CausalAttention)->Arg(206)->Arg(810);

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
BM_TimeGemmModel(benchmark::State &state)
{
    // One Focus O-proj-sized SIC GEMM: 87,808 draws from a sampler
    // holding psi 0.5, counted into the Fig. 13 histogram from its
    // one-position p table.
    const AccelConfig cfg = AccelConfig::focus();
    FracSampler psi(nullptr, 0.5);
    TileLengthHistogram hist;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            timeGemm(cfg, 6381, 3584, 3584, psi, true, true, hist)
                .cycles);
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
        // A 96-value per-tile distribution, as a functional run
        // hands the cycle model.
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
// --threads=N opts back in to a wider pool.  The banner names the pool
// width and the kernel clone the host runs, so a row says which body
// produced it.
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
    std::printf("# pool threads: %d\n", ThreadPool::global().threads());
    std::printf("# kernel clone: %s\n", kernels::cloneName());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
