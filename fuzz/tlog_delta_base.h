// The small fixed bucket mirror fuzz_tlog_delta folds hostile deltas
// into. make_corpus builds its fold seeds against the same mirror, so a
// seed can name real buckets (e.g. empty one entry by entry).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tlog/delta.h"

namespace cbl::fuzz {

inline tlog::BucketMap tlog_delta_base_mirror() {
  tlog::BucketMap buckets;
  ChaChaRng rng = ChaChaRng::from_string_seed("fuzz-tlog-delta");
  for (std::uint32_t prefix : {7u, 9u, 1000u}) {
    std::vector<ec::RistrettoPoint::Encoding> entries(3);
    for (auto& e : entries) rng.fill(e.data(), e.size());
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()),
                  entries.end());
    buckets.emplace(prefix, std::move(entries));
  }
  return buckets;
}

}  // namespace cbl::fuzz
