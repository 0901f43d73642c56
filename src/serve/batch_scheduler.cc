#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace focus
{

const char *
batchPolicyName(BatchPolicy p)
{
    switch (p) {
      case BatchPolicy::Single:
        return "single";
      case BatchPolicy::FixedSize:
        return "fixed-size";
      case BatchPolicy::Timeout:
        return "timeout";
      case BatchPolicy::ConcAware:
        return "conc-aware";
    }
    return "?";
}

BatchScheduler::BatchScheduler(const SchedulerConfig &cfg) : cfg_(cfg)
{
    if (cfg_.max_batch <= 0) {
        fatal("BatchScheduler: max_batch must be positive (got %d)",
              cfg_.max_batch);
    }
    // Negated so a NaN fails it too (a NaN timeout used to change
    // which batches form).
    if ((cfg_.policy == BatchPolicy::Timeout ||
         cfg_.policy == BatchPolicy::ConcAware) &&
        !(cfg_.timeout_s >= 0.0)) {
        fatal("BatchScheduler: batching timeout timeout_s must be "
              "non-negative (got %g s)", cfg_.timeout_s);
    }
}

namespace
{

/**
 * ConcAware retained-token bucket: requests group when their
 * retained-row counts fall in the same power-of-two band, i.e. are
 * within ~2x of each other.
 */
int64_t
costBucket(int64_t retained_rows)
{
    if (retained_rows <= 0) {
        return 0;
    }
    return static_cast<int64_t>(
        std::llround(std::floor(
            std::log2(static_cast<double>(retained_rows)))));
}

} // namespace

bool
BatchScheduler::compatible(const BatchKey &a, const BatchKey &b) const
{
    if (a.model != b.model) {
        return false;
    }
    if (cfg_.policy == BatchPolicy::ConcAware) {
        return costBucket(a.cost) == costBucket(b.cost);
    }
    return true;
}

std::vector<PlannedBatch>
BatchScheduler::planOpenLoop(const std::vector<ServeRequest> &stream,
                             const std::vector<BatchKey> &keys) const
{
    if (keys.size() != stream.size()) {
        panic("BatchScheduler::planOpenLoop: %zu keys for %zu "
              "requests", keys.size(), stream.size());
    }
    for (size_t i = 1; i < stream.size(); ++i) {
        if (stream[i].arrival_s < stream[i - 1].arrival_s) {
            panic("BatchScheduler::planOpenLoop: stream not sorted "
                  "by arrival");
        }
    }

    const bool timed = cfg_.policy == BatchPolicy::Timeout ||
        cfg_.policy == BatchPolicy::ConcAware;

    struct OpenBatch
    {
        PlannedBatch batch;
        BatchKey key;
        double opened_s = 0.0; ///< arrival of the oldest member
    };

    std::vector<OpenBatch> open;
    std::vector<PlannedBatch> done;

    const auto close = [&](size_t open_idx, double ready) {
        open[open_idx].batch.ready_s = ready;
        done.push_back(std::move(open[open_idx].batch));
        open.erase(open.begin() + static_cast<ptrdiff_t>(open_idx));
    };

    for (size_t i = 0; i < stream.size(); ++i) {
        const double now = stream[i].arrival_s;

        // Expire open batches whose oldest member has waited out the
        // timeout before this arrival.
        if (timed) {
            for (size_t b = 0; b < open.size();) {
                if (open[b].opened_s + cfg_.timeout_s <= now) {
                    close(b, open[b].opened_s + cfg_.timeout_s);
                } else {
                    ++b;
                }
            }
        }

        if (cfg_.policy == BatchPolicy::Single) {
            PlannedBatch pb;
            pb.members.push_back(i);
            pb.ready_s = now;
            done.push_back(std::move(pb));
            continue;
        }

        size_t slot = open.size();
        for (size_t b = 0; b < open.size(); ++b) {
            if (compatible(open[b].key, keys[i])) {
                slot = b;
                break;
            }
        }
        if (slot == open.size()) {
            OpenBatch ob;
            ob.key = keys[i];
            ob.opened_s = now;
            open.push_back(std::move(ob));
        }
        open[slot].batch.members.push_back(i);
        if (static_cast<int>(open[slot].batch.members.size()) >=
            cfg_.max_batch) {
            close(slot, now);
        }
    }

    // Stream-end flush: Timeout/ConcAware wait out their bound, a
    // FixedSize former only ever flushes at end of stream.
    while (!open.empty()) {
        const double ready = timed
            ? open.front().opened_s + cfg_.timeout_s
            : stream[open.front().batch.members.back()].arrival_s;
        close(0, ready);
    }

    std::sort(done.begin(), done.end(),
              [](const PlannedBatch &a, const PlannedBatch &b) {
                  if (a.ready_s != b.ready_s) {
                      return a.ready_s < b.ready_s;
                  }
                  return a.members.front() < b.members.front();
              });
    return done;
}

std::vector<size_t>
BatchScheduler::pickPending(const std::vector<size_t> &pending,
                            const std::vector<BatchKey> &keys) const
{
    std::vector<size_t> picked;
    if (pending.empty()) {
        return picked;
    }
    picked.push_back(pending.front());
    if (cfg_.policy == BatchPolicy::Single) {
        return picked;
    }
    const BatchKey &lead = keys[pending.front()];
    for (size_t p = 1; p < pending.size() &&
         static_cast<int>(picked.size()) < cfg_.max_batch; ++p) {
        if (compatible(lead, keys[pending[p]])) {
            picked.push_back(pending[p]);
        }
    }
    return picked;
}

} // namespace focus
