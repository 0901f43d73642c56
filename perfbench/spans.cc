#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>

namespace perfbench
{

namespace
{

thread_local int tls_parent = -1;
thread_local int tls_op = -1;
std::atomic<int> g_next_tid{0};
std::atomic<int> g_next_span{0};

int
threadNumber()
{
    thread_local const int tid = g_next_tid.fetch_add(1);
    return tid;
}

} // namespace

uint64_t
nowNs()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

void
SpanLog::add(const Span &s)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
}

void
SpanLog::count(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lk(mu_);
    counters_[name] += v;
}

double
SpanLog::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

double
SpanLog::seconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    double s = 0.0;
    for (const Span &sp : spans_) {
        if (name == sp.name) {
            s += sp.seconds();
        }
    }
    return s;
}

int64_t
SpanLog::calls(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    int64_t n = 0;
    for (const Span &sp : spans_) {
        n += name == sp.name ? 1 : 0;
    }
    return n;
}

std::string
chromeJson(const std::vector<Span> &all)
{
    std::set<int> tids;
    for (const Span &s : all) {
        tids.insert(s.tid);
    }
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    char buf[512];
    for (const int tid : tids) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", "
                      "\"pid\": 1, \"tid\": %d, \"args\": {\"name\": "
                      "\"thread-%d\"}}",
                      first ? "" : ",", tid, tid);
        out += buf;
        first = false;
    }
    for (const Span &s : all) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %d, \"parent\": %d, \"op\": %d}}",
                      first ? "" : ",", s.name, s.tid,
                      1e-3 * static_cast<double>(s.start_ns),
                      1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                      s.id, s.parent, s.op);
        out += buf;
        first = false;
    }
    out += "\n]}\n";
    return out;
}

Scope::Scope(SpanLog &log, const char *name, int op) : log_(log)
{
    if (!log_.enabled()) {
        return;
    }
    live_ = true;
    span_.name = name;
    span_.id = g_next_span.fetch_add(1);
    span_.parent = tls_parent;
    span_.op = op == kInheritOp ? tls_op : op;
    span_.tid = threadNumber();
    saved_parent_ = tls_parent;
    saved_op_ = tls_op;
    tls_parent = span_.id;
    tls_op = span_.op;
    span_.start_ns = nowNs();
}

Scope::~Scope()
{
    if (!live_) {
        return;
    }
    span_.end_ns = nowNs();
    tls_parent = saved_parent_;
    tls_op = saved_op_;
    log_.add(span_);
}

Adopt::Adopt(int parent, int op)
    : saved_parent_(tls_parent), saved_op_(tls_op)
{
    tls_parent = parent;
    tls_op = op;
}

Adopt::~Adopt()
{
    tls_parent = saved_parent_;
    tls_op = saved_op_;
}

int
Adopt::currentSpan()
{
    return tls_parent;
}

int
Adopt::currentOp()
{
    return tls_op;
}

} // namespace perfbench
