// The querying user C of Fig. 2: blinds queries, recovers verdicts, and
// implements the two latency/bandwidth optimizations of the paper —
// local prefix-list filtering (most negatives never touch the network)
// and per-prefix bucket caching: a cached bucket is reused until the
// server reports that bucket changed or the key rotated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/errors.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "oprf/oracle.h"
#include "oprf/protocol.h"
#include "oprf/server.h"

namespace cbl::oprf {

class OprfClient {
 public:
  OprfClient(Oracle oracle, unsigned lambda, Rng& rng);

  struct Prepared {
    QueryRequest request;
    PendingQuery pending;
  };

  /// Secure query (stage 2 of Fig. 2): m = H(u)^r plus the plaintext
  /// prefix. Expensive under the slow oracle — by design. Keeps
  /// H(u)^(r/2) in pending.half_blinded; the request carries its
  /// doubling.
  Prepared prepare(std::string_view entry) const;

  struct Result {
    bool listed = false;
    /// Decrypted metadata when the entry is listed and the server attached
    /// any; nullopt otherwise.
    std::optional<Bytes> metadata;
  };

  /// Response recovery (stage 4): psi^(1/r), membership test against s_p.
  /// Updates the bucket cache. An omitted bucket is read from the cache
  /// entry the request advertised, which then moves to the response
  /// epoch; throws ProtocolError if that entry is gone or changed, or the
  /// response epoch is older than it.
  Result finish(const PendingQuery& pending, const QueryResponse& response);

  // --- Prefix list fast path ----------------------------------------------
  /// Installs the server-distributed prefix list.
  void set_prefix_list(std::vector<std::uint32_t> prefixes);
  bool has_prefix_list() const { return prefix_list_.has_value(); }

  /// False means "definitely not listed" — no interaction needed. True
  /// means the prefix collides with some blocklist entry, so an online
  /// query is required to decide.
  bool may_be_listed(std::string_view entry) const;

  // --- Verifiable OPRF ------------------------------------------------------
  /// Pin the server's published key commitment g^R; subsequent prepare()
  /// calls request an evaluation proof and finish() rejects responses
  /// whose DLEQ does not verify against the pinned commitment.
  void pin_key_commitment(const ec::RistrettoPoint& commitment) {
    pinned_commitment_ = commitment;
  }
  void clear_key_commitment() { pinned_commitment_.reset(); }

  // --- Cache ---------------------------------------------------------------
  void set_api_key(std::string key) { api_key_ = std::move(key); }
  std::size_t cached_buckets() const { return cache_.size(); }
  void clear_cache() { cache_.clear(); }

  unsigned lambda() const { return lambda_; }

 private:
  struct CachedBucket {
    std::uint64_t epoch;
    std::vector<ec::RistrettoPoint::Encoding> bucket;
    std::vector<Bytes> metadata;
  };

  Oracle oracle_;
  unsigned lambda_;
  Rng& rng_;
  std::string api_key_;
  std::optional<std::unordered_set<std::uint32_t>> prefix_list_;
  std::optional<ec::RistrettoPoint> pinned_commitment_;
  std::unordered_map<std::uint32_t, CachedBucket> cache_;

  // Observability handles (cbl_oprf_client_* families).
  struct Metrics {
    obs::Counter* fastpath_local;   // prefix list resolved it offline
    obs::Counter* fastpath_online;  // prefix collision, online query needed
    obs::Counter* cache_hits;       // server omitted the bucket
    obs::Counter* cache_misses;     // fresh bucket transferred
  };
  Metrics metrics_;
};

}  // namespace cbl::oprf
