// Test-side reads of the process-wide metrics registry, as deltas.
//
// Registry counters are the only record of what the transport, the
// fault injectors and the services did, and they are monotone for the
// life of the process. Every test in a binary shares them, so a test
// asserts on how far a counter moved around the code it exercises —
// never on its absolute value, which depends on whatever ran before it
// in the same process (a whole-binary or shuffled gtest run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace cbl::test {

/// One counter series (name + labels), read as its movement since this
/// object was made.
class CounterDelta {
 public:
  explicit CounterDelta(const std::string& name, const obs::Labels& labels = {})
      : counter_(obs::MetricsRegistry::global().counter(name, labels)),
        base_(counter_.value()) {}

  std::uint64_t value() const { return counter_.value() - base_; }

 private:
  const obs::Counter& counter_;
  std::uint64_t base_;
};

/// Every series of one counter family, summed over its label sets and
/// read as movement since this object was made — e.g. transport calls
/// across all endpoints, including ones first called after construction.
class FamilyDelta {
 public:
  explicit FamilyDelta(std::string name)
      : name_(std::move(name)), base_(sum()) {}

  std::uint64_t value() const { return sum() - base_; }

 private:
  std::uint64_t sum() const {
    std::uint64_t total = 0;
    for (const auto& s : obs::MetricsRegistry::global().snapshot()) {
      if (s.kind == obs::MetricSnapshot::Kind::kCounter && s.name == name_) {
        total += static_cast<std::uint64_t>(s.value);
      }
    }
    return total;
  }

  std::string name_;
  std::uint64_t base_;
};

}  // namespace cbl::test
