/**
 * @file
 * A bag of named 64-bit counters: the request-mode DRAM reference
 * (tests/reference/dram_requests.h) records row hits and misses here.
 */

#ifndef FOCUS_TESTS_REFERENCE_STAT_SET_H
#define FOCUS_TESTS_REFERENCE_STAT_SET_H

#include <cstdint>
#include <map>
#include <string>

namespace focus
{
namespace reference
{

class StatSet
{
  public:
    void
    inc(const std::string &name, uint64_t by = 1)
    {
        vals_[name] += by;
    }

    uint64_t
    get(const std::string &name) const
    {
        const auto it = vals_.find(name);
        return it == vals_.end() ? 0 : it->second;
    }

    bool
    has(const std::string &name) const
    {
        return vals_.count(name) != 0;
    }

    void
    merge(const StatSet &other)
    {
        for (const auto &[k, v] : other.vals_) {
            vals_[k] += v;
        }
    }

    void clear() { vals_.clear(); }

  private:
    std::map<std::string, uint64_t> vals_;
};

} // namespace reference
} // namespace focus

#endif // FOCUS_TESTS_REFERENCE_STAT_SET_H
