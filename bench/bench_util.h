/**
 * @file
 * Shared helpers for the bench harness binaries.
 *
 * Every bench accepts an optional sample-count argument (the first
 * non-flag argument, or the FOCUS_BENCH_SAMPLES environment variable)
 * controlling how many synthetic QA samples feed each functional
 * measurement, and a `--threads=N` flag (or the FOCUS_THREADS
 * environment variable) sizing the thread pool that the experiment
 * grid dispatches cells on; defaults are sized so the full bench
 * suite completes in minutes.  Results are deterministic in the seed
 * and bit-identical at every thread count.
 *
 * Benches run the SFU vector math backend by default (ctest runs
 * exact); set FOCUS_MATH_BACKEND=exact to reproduce the historical
 * libm arithmetic bit-for-bit (see tensor/kernels.h).
 */

#ifndef FOCUS_BENCH_BENCH_UTIL_H
#define FOCUS_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"
#include "eval/experiment.h"
#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "runtime/thread_pool.h"
#include "sim/gpu_model.h"
#include "sim/systolic.h"
#include "tensor/kernels.h"

#ifndef FOCUS_GIT_REV
#define FOCUS_GIT_REV "unknown"
#endif

namespace focus
{

/** Parsed bench command line. */
struct BenchOptions
{
    int samples = 1; ///< QA samples per grid cell
    int threads = 0; ///< explicit --threads=N (0 = pool default)
    int batch = 0;   ///< explicit --batch=N (0 = bench default)
    /** Explicit --arrival-rate=R in req/s (0 = bench default). */
    double arrival_rate = 0.0;
    /** Explicit --replicas=N sweep ceiling (0 = bench default). */
    int replicas = 0;
    /** Explicit --requests=N stream length (0 = bench default). */
    int requests = 0;
};

/**
 * Parse "[samples] [--threads=N] [--batch=N] [--arrival-rate=R]
 * [--replicas=N] [--requests=N]" with the environment fallbacks
 * described in the file header, and size the global pool when
 * --threads is given.  The batch / arrival-rate / replicas /
 * requests serving knobs are consumed by the serving and cluster
 * benches; every bench parses (and rejects malformed values of)
 * them so a shared wrapper script can pass one flag set.  Every count
 * (the sample count, FOCUS_BENCH_SAMPLES, --threads, --batch,
 * --replicas, --requests) must be a plain positive integer: anything
 * else is a fatal() naming the input (common/parse.h).
 */
inline BenchOptions
benchOptions(int argc, char **argv, int fallback_samples)
{
    BenchOptions bo;
    bo.samples = fallback_samples;
    bool have_samples = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            bo.threads = parsePositiveInt(argv[i] + 10, "--threads");
        } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
            bo.batch = parsePositiveInt(argv[i] + 8, "--batch");
        } else if (std::strncmp(argv[i], "--arrival-rate=", 15) == 0) {
            char *end = nullptr;
            bo.arrival_rate = std::strtod(argv[i] + 15, &end);
            if (end == argv[i] + 15 || *end != '\0' ||
                !(bo.arrival_rate > 0.0)) {
                fatal("invalid arrival rate in '%s' (want a positive "
                      "req/s value)", argv[i]);
            }
        } else if (std::strncmp(argv[i], "--replicas=", 11) == 0) {
            bo.replicas = parsePositiveInt(argv[i] + 11, "--replicas");
        } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
            bo.requests = parsePositiveInt(argv[i] + 11, "--requests");
        } else if (argv[i][0] == '-' && argv[i][1] != '\0' &&
                   (argv[i][1] < '0' || argv[i][1] > '9')) {
            // Reject unknown flags loudly: a typo like --thread=4
            // must not silently become the sample count.
            fatal("unknown option '%s' (usage: %s [samples] "
                  "[--threads=N] [--batch=N] [--arrival-rate=R] "
                  "[--replicas=N] [--requests=N])",
                  argv[i], argv[0]);
        } else if (!have_samples) {
            bo.samples = parsePositiveInt(argv[i], "sample count");
            have_samples = true;
        }
    }
    if (!have_samples) {
        const char *env = std::getenv("FOCUS_BENCH_SAMPLES");
        if (env != nullptr && *env != '\0') {
            bo.samples = parsePositiveInt(env, "FOCUS_BENCH_SAMPLES");
        }
    }
    if (bo.threads > 0) {
        ThreadPool::setGlobalThreads(bo.threads);
    }
    // Benches default the SFU tier to the vector backend (the perf
    // configuration); an explicit FOCUS_MATH_BACKEND always wins.
    if (std::getenv("FOCUS_MATH_BACKEND") == nullptr) {
        kernels::setMathBackend(kernels::MathBackend::Vector);
    }
    return bo;
}

/** Shorthand for the per-cell evaluation options. */
inline EvalOptions
benchEvalOptions(const BenchOptions &bo)
{
    EvalOptions opts;
    opts.samples = bo.samples;
    return opts;
}

/** Accelerator architecture matching a method (for Fig. 9 style). */
inline AccelConfig
accelForMethod(const MethodConfig &m)
{
    switch (m.kind) {
      case MethodKind::AdapTiV:
        return AccelConfig::adaptiv();
      case MethodKind::CMC:
        return AccelConfig::cmc();
      case MethodKind::Focus:
        return AccelConfig::focus();
      default:
        return AccelConfig::systolicArray();
    }
}

/**
 * Standard bench banner.  Echoes the sample count, pool width and
 * math backend so a result can be tied to its configuration;
 * everything *below* the banner is bit-identical at every pool width.
 */
inline void
benchBanner(const char *what, const BenchOptions &bo)
{
    std::printf("=== %s ===\n", what);
    std::printf("(synthetic reproduction; %d samples per cell; "
                "%d threads; %s math; see "
                "EXPERIMENTS.md for paper-vs-measured)\n\n",
                bo.samples, ThreadPool::global().threads(),
                kernels::mathBackendName(kernels::activeMathBackend()));
}

/**
 * Machine-readable bench snapshot: wall clock, configuration, and the
 * headline metrics a bench prints, written as BENCH_<name>.json when
 * the recorder goes out of scope.  The FOCUS_BENCH_JSON environment
 * variable controls emission: unset writes into the current
 * directory, "off" disables it, any other value is the destination
 * directory.  Emission is silent — bench stdout below the banner must
 * stay bit-identical across configurations, so the JSON (which embeds
 * wall-clock and backend names) never touches stdout.  CI compares a
 * fresh snapshot against the checked-in one with
 * bench/compare_bench_json.py: metrics must match exactly (they are
 * deterministic), wall clock within a tolerance band.
 */
class BenchRecorder
{
  public:
    BenchRecorder(std::string name, const BenchOptions &bo)
        : name_(std::move(name)), samples_(bo.samples),
          start_(std::chrono::steady_clock::now())
    {
        // Baseline counter snapshot so the obs block reports only the
        // work attributable to this bench (a process may run several
        // recorders back to back).
        if (obs::countersEnabled()) {
            obs_base_work_ = obs::MetricsRegistry::instance()
                                 .counterValues(obs::CounterKind::Work);
            obs_base_sched_ =
                obs::MetricsRegistry::instance().counterValues(
                    obs::CounterKind::Sched);
        }
    }

    BenchRecorder(const BenchRecorder &) = delete;
    BenchRecorder &operator=(const BenchRecorder &) = delete;

    /** Record one headline metric (insertion order is preserved). */
    void
    metric(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
    }

    ~BenchRecorder()
    {
        const char *dest = std::getenv("FOCUS_BENCH_JSON");
        if (dest != nullptr && std::strcmp(dest, "off") == 0) {
            return;
        }
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::string path;
        if (dest != nullptr && dest[0] != '\0') {
            path = std::string(dest) + "/";
        }
        path += "BENCH_" + name_ + ".json";
        FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr,
                         "bench: cannot write snapshot %s (skipped)\n",
                         path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
        std::fprintf(f, "  \"git_rev\": \"%s\",\n", FOCUS_GIT_REV);
        std::fprintf(
            f,
            "  \"config\": {\n"
            "    \"samples\": %d,\n    \"threads\": %d,\n"
            "    \"math_backend\": \"%s\"\n  },\n",
            samples_, ThreadPool::global().threads(),
            kernels::mathBackendName(kernels::activeMathBackend()));
        std::fprintf(f, "  \"wall_ms\": %.3f,\n", wall_ms);
        std::fprintf(f, "  \"metrics\": {");
        for (size_t i = 0; i < metrics_.size(); ++i) {
            std::fprintf(f, "%s\n    \"%s\": %.17g",
                         i == 0 ? "" : ",", metrics_[i].first.c_str(),
                         metrics_[i].second);
        }
        std::fprintf(f, "\n  }");
        // Counter deltas since construction, when FOCUS_OBS enables
        // the registry.  The snapshot comparator ignores unknown
        // top-level keys, so checked-in snapshots (recorded with obs
        // off) stay comparable against obs-on runs.
        if (obs::countersEnabled()) {
            std::fprintf(f, ",\n  \"obs\": {\n    \"mode\": \"%s\",\n",
                         obs::obsModeName(obs::activeObsMode()));
            writeObsSection(f, "counters", obs::CounterKind::Work,
                            obs_base_work_);
            std::fprintf(f, ",\n");
            writeObsSection(f, "sched_counters",
                            obs::CounterKind::Sched, obs_base_sched_);
            std::fprintf(f, "\n  }");
        }
        std::fprintf(f, "\n}\n");
        std::fclose(f);
    }

  private:
    static void
    writeObsSection(
        FILE *f, const char *section, obs::CounterKind kind,
        const std::vector<std::pair<std::string, uint64_t>> &base)
    {
        const std::vector<std::pair<std::string, uint64_t>> now =
            obs::MetricsRegistry::instance().counterValues(kind);
        std::fprintf(f, "    \"%s\": {", section);
        bool first = true;
        for (const auto &kv : now) {
            uint64_t before = 0;
            for (const auto &b : base) {
                if (b.first == kv.first) {
                    before = b.second;
                    break;
                }
            }
            std::fprintf(f, "%s\n      \"%s\": %llu",
                         first ? "" : ",", kv.first.c_str(),
                         static_cast<unsigned long long>(kv.second -
                                                         before));
            first = false;
        }
        std::fprintf(f, first ? "}" : "\n    }");
    }

    std::string name_;
    int samples_;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, uint64_t>> obs_base_work_;
    std::vector<std::pair<std::string, uint64_t>> obs_base_sched_;
};

} // namespace focus

#endif // FOCUS_BENCH_BENCH_UTIL_H
