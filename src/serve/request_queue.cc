#include "serve/request_queue.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace focus
{

std::string
RequestClass::label() const
{
    return model + "/" + dataset + "/" + method.name();
}

RequestQueue::RequestQueue(const QueueConfig &cfg) : cfg_(cfg)
{
    if (cfg_.mix.empty()) {
        fatal("RequestQueue: empty request mix");
    }
    if (cfg_.num_requests <= 0) {
        fatal("RequestQueue: num_requests must be positive (got %d)",
              cfg_.num_requests);
    }
    // Every range check is written so a NaN fails it, and rates and
    // weights must be finite: a NaN or infinite rate would silently
    // yield an all-NaN or all-zero arrival stream.
    double total_weight = 0.0;
    for (const RequestClass &c : cfg_.mix) {
        if (!(std::isfinite(c.weight) && c.weight >= 0.0)) {
            fatal("RequestQueue: class '%s' weight must be finite and "
                  "non-negative (got %g)", c.label().c_str(), c.weight);
        }
        if (!(c.slo_latency_s > 0.0)) {
            fatal("RequestQueue: class '%s' slo_latency_s must be "
                  "positive (got %g s)", c.label().c_str(),
                  c.slo_latency_s);
        }
        if (c.prefix_cardinality <= 0) {
            fatal("RequestQueue: non-positive prefix cardinality for "
                  "class '%s'", c.label().c_str());
        }
        if (!(std::isfinite(c.prefix_zipf) && c.prefix_zipf >= 0.0)) {
            fatal("RequestQueue: class '%s' prefix_zipf exponent must "
                  "be finite and non-negative (got %g)",
                  c.label().c_str(), c.prefix_zipf);
        }
        total_weight += c.weight;
    }
    if (!(std::isfinite(total_weight) && total_weight > 0.0)) {
        fatal("RequestQueue: request mix total weight must be finite "
              "and positive (got %g)", total_weight);
    }
    if (cfg_.process == ArrivalProcess::OpenPoisson &&
        !(std::isfinite(cfg_.arrival_rate_rps) &&
          cfg_.arrival_rate_rps > 0.0)) {
        fatal("RequestQueue: open-loop arrival rate arrival_rate_rps "
              "must be finite and positive (got %g)",
              cfg_.arrival_rate_rps);
    }
    if (cfg_.process == ArrivalProcess::ClosedLoop) {
        if (cfg_.clients <= 0) {
            fatal("RequestQueue: closed-loop client count must be "
                  "positive (got %d)", cfg_.clients);
        }
        if (!(std::isfinite(cfg_.think_mean_s) &&
              cfg_.think_mean_s >= 0.0)) {
            fatal("RequestQueue: think time think_mean_s must be "
                  "finite and non-negative (got %g s)",
                  cfg_.think_mean_s);
        }
    }
}

namespace
{

/** Exponential variate with mean @p mean (mean 0 returns 0). */
double
exponential(Rng &rng, double mean)
{
    if (mean <= 0.0) {
        return 0.0;
    }
    // uniform() is in [0, 1), so 1 - u is in (0, 1] and log() is safe.
    return -std::log(1.0 - rng.uniform()) * mean;
}

/** Weighted class draw (weights validated at construction). */
int
drawClass(Rng &rng, const std::vector<RequestClass> &mix,
          double total_weight)
{
    double u = rng.uniform() * total_weight;
    for (size_t i = 0; i < mix.size(); ++i) {
        u -= mix[i].weight;
        if (u < 0.0) {
            return static_cast<int>(i);
        }
    }
    return static_cast<int>(mix.size()) - 1;
}

/**
 * Zipf(s) cumulative weights over ranks 0..n-1: rank r has mass
 * proportional to (r+1)^-s.  Built once per class per generate()
 * call; a single uniform draw binary-searches the table.
 */
std::vector<double>
zipfCdf(int n, double s)
{
    std::vector<double> cdf(static_cast<size_t>(n));
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
        total += std::pow(static_cast<double>(r + 1), -s);
        cdf[static_cast<size_t>(r)] = total;
    }
    for (double &c : cdf) {
        c /= total;
    }
    return cdf;
}

int64_t
drawZipf(Rng &rng, const std::vector<double> &cdf)
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto idx = it == cdf.end() ? cdf.size() - 1
                                     : static_cast<size_t>(
                                           it - cdf.begin());
    return static_cast<int64_t>(idx);
}

} // namespace

std::vector<ServeRequest>
RequestQueue::generate() const
{
    Rng rng(cfg_.seed ^ 0x5e21f0c4a87d3b19ull);
    // Prefix identities draw from an independent stream so their
    // addition leaves the historical class/arrival sequence (and
    // every downstream report) bit-identical.
    Rng prefix_rng(cfg_.seed ^ 0x2fd3c1b58a49e617ull);
    double total_weight = 0.0;
    for (const RequestClass &c : cfg_.mix) {
        total_weight += c.weight;
    }
    // Per-class Zipf tables, built lazily (zipf == 0 classes keep the
    // historical uniformInt path and its exact RNG consumption).
    std::vector<std::vector<double>> zipf_cdfs(cfg_.mix.size());

    std::vector<ServeRequest> stream;
    stream.reserve(static_cast<size_t>(cfg_.num_requests));

    double clock = 0.0;
    for (int i = 0; i < cfg_.num_requests; ++i) {
        ServeRequest r;
        r.id = i;
        r.class_id = drawClass(rng, cfg_.mix, total_weight);
        const RequestClass &cls =
            cfg_.mix[static_cast<size_t>(r.class_id)];
        r.slo_latency_s = cls.slo_latency_s;
        if (cls.prefix_zipf > 0.0) {
            std::vector<double> &cdf =
                zipf_cdfs[static_cast<size_t>(r.class_id)];
            if (cdf.empty()) {
                cdf = zipfCdf(cls.prefix_cardinality,
                              cls.prefix_zipf);
            }
            r.prefix_id = drawZipf(prefix_rng, cdf);
        } else {
            r.prefix_id = static_cast<int64_t>(prefix_rng.uniformInt(
                static_cast<uint64_t>(cls.prefix_cardinality)));
        }
        if (cfg_.process == ArrivalProcess::OpenPoisson) {
            clock += exponential(rng, 1.0 / cfg_.arrival_rate_rps);
            r.arrival_s = clock;
        } else {
            r.client = i % cfg_.clients;
            r.think_s = exponential(rng, cfg_.think_mean_s);
        }
        stream.push_back(r);
    }
    return stream;
}

std::string
prefixKey(const ServeRequest &req, const RequestClass &cls)
{
    return cls.label() + "#" + std::to_string(req.prefix_id);
}

std::vector<RequestClass>
standardServingMix()
{
    // All classes share the prefix popularity shape: 256 distinct
    // identities under a Zipf(0.9) skew, i.e. a few hot videos carry
    // most of the traffic (the hottest identity alone draws ~12% of a
    // class's requests).  This is what makes single-replica cache hit
    // rates — and the hashed-vs-round-robin routing gap — visible at
    // bench request counts.
    constexpr int kPrefixCardinality = 256;
    constexpr double kPrefixZipf = 0.9;

    std::vector<RequestClass> mix;

    RequestClass focus_vid;
    focus_vid.model = "Llava-Vid";
    focus_vid.dataset = "VideoMME";
    focus_vid.method = MethodConfig::focusFull();
    focus_vid.weight = 3.0;
    focus_vid.slo_latency_s = 120.0;
    focus_vid.prefix_cardinality = kPrefixCardinality;
    focus_vid.prefix_zipf = kPrefixZipf;
    mix.push_back(focus_vid);

    RequestClass dense_vid;
    dense_vid.model = "Llava-Vid";
    dense_vid.dataset = "VideoMME";
    dense_vid.method = MethodConfig::dense();
    dense_vid.weight = 1.0;
    dense_vid.slo_latency_s = 480.0;
    dense_vid.prefix_cardinality = kPrefixCardinality;
    dense_vid.prefix_zipf = kPrefixZipf;
    mix.push_back(dense_vid);

    RequestClass focus_short;
    focus_short.model = "MiniCPM";
    focus_short.dataset = "MVBench";
    focus_short.method = MethodConfig::focusFull();
    focus_short.weight = 2.0;
    focus_short.slo_latency_s = 90.0;
    focus_short.prefix_cardinality = kPrefixCardinality;
    focus_short.prefix_zipf = kPrefixZipf;
    mix.push_back(focus_short);

    RequestClass focus_long;
    focus_long.model = "Llava-OV";
    focus_long.dataset = "MLVU-Long";
    focus_long.method = MethodConfig::focusFull();
    focus_long.weight = 2.0;
    focus_long.slo_latency_s = 240.0;
    focus_long.prefix_cardinality = kPrefixCardinality;
    focus_long.prefix_zipf = kPrefixZipf;
    mix.push_back(focus_long);

    return mix;
}

} // namespace focus
