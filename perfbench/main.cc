/**
 * @file
 * The repo benchmark runner.
 *
 *   focus_perfbench --workload <video_grid|image_grid>
 *                   --seed <n> --seconds <s> --trace <0|1>
 *                   --expected <dir> [--trace-dir <dir>] [--record]
 *
 * Set-up sizes the pool and loads the stored output digests; setup_s
 * is the time from main()'s entry until the first op is ready.
 * Then ops of the workload run back to back for --seconds; op i uses
 * seed base + (seed + i) mod 64, and its outputs are checked against
 * the digest stored for that seed.  --trace 0 prints the end-to-end
 * metrics; --trace 1 records spans around every call into the program
 * on even ops (odd ops run untraced, which gives the tracing overhead),
 * then runs the layer pass and prints the per-layer metrics.  The last
 * stdout line is one JSON object.  --record rewrites the digest file
 * of the workload from the current program.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/kernels.h"

#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace
{

/** Op seeds cycle through a fixed set whose digests are stored. */
constexpr uint64_t kOpSeedBase = 1000;
constexpr uint64_t kOpSeeds = 64;
/** The layer pass uses seeds no op uses. */
constexpr uint64_t kPassSeedBase = kOpSeedBase + kOpSeeds;

/** Knobs that change the measured program; the benchmark pins them. */
const char *const kPinnedEnv[] = {
    "FOCUS_FUNC_CACHE", "FOCUS_SIM_BACKEND",  "FOCUS_GEMM_BACKEND",
    "FOCUS_MATH_BACKEND", "FOCUS_PREFIX_CACHE", "FOCUS_OBS",
    "FOCUS_THREADS",
};

struct Options
{
    Workload workload = Workload::VideoGrid;
    bool have_workload = false;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string expected_dir;
    std::string trace_dir = ".bench_build/traces";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: focus_perfbench --workload "
                 "<video_grid|image_grid> --seed <n> "
                 "--seconds <s> --trace <0|1> --expected <dir> "
                 "[--trace-dir <dir>] [--record]\n",
                 msg);
    std::exit(2);
}

bool
parseU64(const char *s, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno != 0 || s[0] == '-') {
        return false;
    }
    out = v;
    return true;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const char *val = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            if (!parseWorkload(val, o.workload)) {
                usage((std::string("unknown workload ") + val).c_str());
            }
            o.have_workload = true;
        } else if (flag == "--seed") {
            if (!parseU64(val, o.seed)) {
                usage("--seed wants a non-negative integer");
            }
        } else if (flag == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(val, &end);
            if (end == val || *end != '\0' || !(o.seconds > 0.0)) {
                usage("--seconds wants a positive number");
            }
        } else if (flag == "--trace") {
            if (!parseU64(val, n) || n > 1) {
                usage("--trace wants 0 or 1");
            }
            o.trace = n == 1;
        } else if (flag == "--expected") {
            o.expected_dir = val;
        } else if (flag == "--trace-dir") {
            o.trace_dir = val;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    if (!o.have_workload) {
        usage("--workload is required");
    }
    if (o.expected_dir.empty()) {
        usage("--expected is required");
    }
    return o;
}

std::string
expectedPath(const Options &o)
{
    return o.expected_dir + "/" + workloadName(o.workload) + ".txt";
}

/** Stored digests: "<seed> <hex digest>" lines, '#' comments. */
std::map<uint64_t, uint64_t>
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::map<uint64_t, uint64_t> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        unsigned long long seed = 0, digest = 0;
        if (std::sscanf(line.c_str(), "%llu %llx", &seed, &digest) != 2) {
            std::fprintf(stderr, "perfbench: bad line in %s: %s\n",
                         path.c_str(), line.c_str());
            std::exit(2);
        }
        out[seed] = digest;
    }
    if (out.size() != kOpSeeds) {
        std::fprintf(stderr, "perfbench: %s holds %zu digests, want %d\n",
                     path.c_str(), out.size(), static_cast<int>(kOpSeeds));
        std::exit(2);
    }
    return out;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Share of an op span's interval covered by the union of its direct
 * children, which are the calls into the program.
 */
double
coverage(const Span &op, const std::vector<Span> &spans)
{
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (const Span &s : spans) {
        if (s.parent == op.id) {
            iv.emplace_back(std::max(s.start_ns, op.start_ns),
                            std::min(s.end_ns, op.end_ns));
        }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cursor = op.start_ns;
    for (const auto &p : iv) {
        const uint64_t lo = std::max(p.first, cursor);
        if (p.second > lo) {
            covered += p.second - lo;
            cursor = p.second;
        }
    }
    const uint64_t total = op.end_ns - op.start_ns;
    return total > 0
        ? static_cast<double>(covered) / static_cast<double>(total)
        : 0.0;
}

void
record(const Options &o, focus::ThreadPool &pool)
{
    const std::string path = expectedPath(o);
    std::string text = std::string("# ") + workloadName(o.workload) +
        ": digest of every checked output value per op seed "
        "(focus_perfbench --record)\n";
    SpanLog off(false);
    for (uint64_t k = 0; k < kOpSeeds; ++k) {
        const uint64_t t0 = nowNs();
        const OpResult r = runOp(o.workload, kOpSeedBase + k, off, pool);
        char line[64];
        std::snprintf(line, sizeof(line), "%" PRIu64 " %016" PRIx64 "\n",
                      kOpSeedBase + k, r.digest);
        text += line;
        std::fprintf(stderr,
                     "perfbench: recorded seed %" PRIu64 " (%.3f s)\n",
                     kOpSeedBase + k,
                     1e-9 * static_cast<double>(nowNs() - t0));
    }
    std::ofstream out(path);
    out << text;
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        std::exit(2);
    }
    std::printf("perfbench: wrote %s\n", path.c_str());
}

void
printMetrics(bool correct, int attempted, int failed,
             const std::map<std::string, Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto &kv : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", kv.first.c_str(), kv.second.value,
                    kv.second.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t start_ns = nowNs();
    const Options o = parseArgs(argc, argv);
    for (const char *name : kPinnedEnv) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set: it "
                         "changes the measured program, and the "
                         "benchmark pins its configuration itself "
                         "(unset it)\n",
                         name);
            return 2;
        }
    }

    // Pinned configuration: vector math, pool width min(4, cores).
    const unsigned hw = std::thread::hardware_concurrency();
    const int width = static_cast<int>(std::min(4u, std::max(1u, hw)));
    focus::kernels::setMathBackend(focus::kernels::MathBackend::Vector);
    std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g "
                "trace=%d math=%s pool=%d\n",
                workloadName(o.workload), o.seed, o.seconds,
                o.trace ? 1 : 0,
                focus::kernels::mathBackendName(
                    focus::kernels::activeMathBackend()),
                width);

    if (o.record) {
        focus::ThreadPool::setGlobalThreads(width);
        record(o, focus::ThreadPool::global());
        return 0;
    }

    // Set-up: the pool and the stored digests.  The program keeps no
    // other lazy state that every op would not rebuild anyway.
    focus::ThreadPool::setGlobalThreads(width);
    const std::map<uint64_t, uint64_t> expected =
        loadExpected(expectedPath(o));
    focus::ThreadPool &pool = focus::ThreadPool::global();
    const double setup_s = 1e-9 * static_cast<double>(nowNs() - start_ns);

    // Timed ops, back to back (a closed loop of one caller).  Rates
    // are medians over ops, so one stalled op moves them little.
    SpanLog log(o.trace);
    SpanLog off(false);
    std::vector<double> op_s, busy, cpu_per_item;
    std::vector<double> ips[2]; // per-op items/s, [traced]
    int attempted = 0, failed = 0;
    ModelStats first_stats;
    const uint64_t loop_start = nowNs();
    while (attempted == 0 ||
           1e-9 * static_cast<double>(nowNs() - loop_start) < o.seconds) {
        const int i = attempted;
        const uint64_t seed = kOpSeedBase +
            (o.seed % kOpSeeds + static_cast<uint64_t>(i)) % kOpSeeds;
        const bool traced = o.trace && i % 2 == 0;
        const double cpu0 = cpuSeconds();
        const uint64_t t0 = nowNs();
        OpResult r;
        {
            Scope span(traced ? log : off, "op", i);
            r = runOp(o.workload, seed, traced ? log : off, pool);
        }
        const double secs = 1e-9 * static_cast<double>(nowNs() - t0);
        const double cpu = cpuSeconds() - cpu0;
        const double items = static_cast<double>(r.items);
        ++attempted;
        op_s.push_back(secs);
        busy.push_back(cpu / (secs * width));
        cpu_per_item.push_back(cpu / items);
        ips[traced ? 1 : 0].push_back(items / secs);
        if (i == 0) {
            first_stats = r.stats;
        }
        std::fprintf(stderr,
                     "perfbench: op %d seed %" PRIu64 " %.4f s, peak rss "
                     "%.1f MB\n",
                     i, seed, secs, peakRssMb());
        if (r.digest != expected.at(seed)) {
            ++failed;
            std::fprintf(stderr,
                         "perfbench: op %d (seed %" PRIu64 ") FAILED its "
                         "output check: digest %016" PRIx64 ", stored "
                         "%016" PRIx64 "\n%s",
                         i, seed, r.digest, expected.at(seed),
                         r.detail.c_str());
        }
    }
    std::printf("ops: %s attempted %d failed %d; op_s_p50 %.4f s over "
                "%d ops\n",
                workloadName(o.workload), attempted, failed,
                median(op_s), attempted);
    std::printf("stats (op 0):");
    for (const auto &kv : first_stats) {
        std::printf(" %s=%.17g", kv.first.c_str(), kv.second);
    }
    std::printf("\n");

    std::map<std::string, Metric> metrics;
    if (!o.trace) {
        metrics["setup_s"] = {setup_s, "s"};
        metrics["items_per_s"] = {median(ips[0]), "items/s"};
        metrics["op_s_p50"] = {median(op_s), "s"};
        metrics["cpu_s_per_item"] = {median(cpu_per_item), "s"};
        printMetrics(failed == 0, attempted, failed, metrics);
        return 0;
    }

    // Traced run: coverage of each traced op by its top-level calls.
    double min_cover = 1.0;
    const std::vector<Span> op_spans = log.spans();
    for (const Span &s : op_spans) {
        if (std::strcmp(s.name, "op") == 0) {
            min_cover = std::min(min_cover, coverage(s, op_spans));
        }
    }
    metrics["runtime.peak_rss_mb"] = {peakRssMb(), "MB"}; // before the pass
    // The layer pass aggregates only its own spans.
    const uint64_t pass_seed = kPassSeedBase + o.seed % kOpSeeds;
    SpanLog pass_log(true);
    layerPass(o.workload, pass_seed, pass_log, pool, metrics);
    for (const auto &kv : first_stats) {
        metrics[kv.first].value = kv.second; // op 0's own statistics
    }
    metrics["runtime.busy_frac"] = {median(busy), "ratio"};
    metrics["trace.coverage"] = {min_cover, "ratio"};
    const double traced_ips = median(ips[1]);
    const double untraced_ips = median(ips[0]);
    metrics["trace.items_per_s"] = {traced_ips, "items/s"};
    metrics["trace.overhead_frac"] = {
        untraced_ips > 0.0 ? untraced_ips / traced_ips - 1.0 : 0.0,
        "ratio"};

    std::error_code ec;
    std::filesystem::create_directories(o.trace_dir, ec);
    const std::string path = o.trace_dir + "/" +
        workloadName(o.workload) + "-seed" + std::to_string(o.seed) +
        ".json";
    std::vector<Span> spans = log.spans();
    const std::vector<Span> pass_spans = pass_log.spans();
    spans.insert(spans.end(), pass_spans.begin(), pass_spans.end());
    std::ofstream out(path);
    out << chromeJson(spans);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 2;
    }
    std::printf("trace: %s (%zu spans); top-level calls cover >= %.4f "
                "of every traced op; items_per_s traced %.4g vs "
                "untraced %.4g\n",
                path.c_str(), spans.size(), min_cover, traced_ips,
                untraced_ips);
    printMetrics(failed == 0, attempted, failed, metrics);
    return 0;
}
