/**
 * @file
 * The benchmark's own span log.
 *
 * Spans are recorded by the benchmark around its calls into the
 * program's public entry points; the program itself is not
 * instrumented.  Each span carries its name, start and end (steady
 * clock, nanoseconds since the log was created), the id of the span
 * that caused it, the op it belongs to and the recording thread.
 * Spans stay in memory until the run ends, when they are aggregated
 * into the per-layer metrics and written out as Chrome trace-event
 * JSON.  A disabled log records nothing: Scope is then one branch.
 */

#ifndef FOCUS_PERFBENCH_SPANS_H
#define FOCUS_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds since the first call (steady clock). */
uint64_t nowNs();

/** One recorded span. */
struct Span
{
    const char *name = nullptr; ///< string literal
    int id = 0;
    int parent = -1; ///< -1 for a root span
    int op = -1;     ///< op index, -1 outside the timed ops
    int tid = 0;     ///< small per-thread number
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;

    double
    seconds() const
    {
        return 1e-9 * static_cast<double>(end_ns - start_ns);
    }
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Append a finished span (thread-safe). */
    void add(const Span &s);

    /** Add @p v to a named work count (thread-safe). */
    void count(const std::string &name, double v);
    double counter(const std::string &name) const;

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Summed duration in seconds and call count of spans named @p name. */
    double seconds(const std::string &name) const;
    int64_t calls(const std::string &name) const;

  private:
    bool enabled_;
    mutable std::mutex mu_; ///< guards spans_ and counters_
    std::vector<Span> spans_;
    std::map<std::string, double> counters_;
};

/**
 * Chrome trace-event JSON of @p spans ("X" events, "M" thread names);
 * span ids are unique across logs, so several logs may be merged.
 */
std::string chromeJson(const std::vector<Span> &spans);

/** Scope's op argument that keeps the thread's current op. */
constexpr int kInheritOp = -2;

/**
 * RAII span.  Its parent is the innermost open Scope on this thread,
 * or the span an Adopt installed; its op is @p op, by default the
 * thread's current op.
 */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, int op = kInheritOp);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    Span span_;
    bool live_ = false;
    int saved_parent_ = -1;
    int saved_op_ = -1;
};

/**
 * Makes spans opened on this thread children of @p parent within op
 * @p op, for work a pool task runs on behalf of a span opened on
 * another thread.
 */
class Adopt
{
  public:
    Adopt(int parent, int op);
    ~Adopt();

    Adopt(const Adopt &) = delete;
    Adopt &operator=(const Adopt &) = delete;

    /** The calling thread's innermost span id and op. */
    static int currentSpan();
    static int currentOp();

  private:
    int saved_parent_;
    int saved_op_;
};

} // namespace perfbench

#endif // FOCUS_PERFBENCH_SPANS_H
