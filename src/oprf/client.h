// The querying user C of Fig. 2: blinds queries, recovers verdicts, and
// implements the two latency/bandwidth optimizations of the paper —
// local prefix-list filtering (most negatives never touch the network)
// and per-prefix bucket caching: a cached bucket is reused until the
// server reports that bucket changed or the key rotated. Each cached
// bucket also memoises the verdicts judged against it, so a repeat
// lookup whose bucket the server omits skips the unblind. A client fed
// from an audited bucket mirror (feed_mirror) also reads the buckets it
// has not cached from the mirror instead of downloading them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
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
  /// As above, for a caller that already holds the entry's SHA-256
  /// digest (from fast_path_check), so the entry is hashed once.
  Prepared prepare(std::string_view entry,
                   const hash::Sha256::Digest& digest) const;

  struct Result {
    bool listed = false;
    /// Decrypted metadata when the entry is listed and the server attached
    /// any; nullopt otherwise.
    std::optional<Bytes> metadata;
  };

  /// Response recovery (stage 4): psi^(1/r), membership test against s_p.
  /// Updates the bucket cache. An omitted bucket is read from the cache
  /// entry the request advertised, which then moves to the response
  /// epoch, or — when the request advertised the fed mirror's epoch —
  /// from the mirror, if it still stands at that epoch. Throws
  /// ProtocolError if that source is gone or changed (a mirror found
  /// moved on is dropped until the next feed), or the response epoch is
  /// older than the advertised one. When the bucket
  /// is omitted and this entry's verdict against it is memoised, that
  /// verdict is returned without unblinding — after the same psi decode
  /// and proof check. A re-sent bucket drops its memo.
  Result finish(const PendingQuery& pending, const QueryResponse& response);

  /// The verdict finish() memoised for this entry against its cached
  /// bucket, nullopt when there is none. The bucket is the one the
  /// server last vouched for; a re-sent bucket dropped its memo.
  std::optional<bool> memoised_verdict(
      const hash::Sha256::Digest& digest) const;

  // --- Prefix list fast path ----------------------------------------------
  /// Installs the server-distributed prefix list. Kept sorted, so a
  /// refresh costs a move, not a rebuild.
  void set_prefix_list(std::vector<std::uint32_t> prefixes);

  /// False means "definitely not listed" — no interaction needed. True
  /// means the prefix collides with some blocklist entry, so an online
  /// query is required to decide. Counts nothing: a lookup that is not a
  /// query's routing decision (a degraded answer) calls this.
  bool may_be_listed(std::string_view entry) const;
  /// The same check from the entry's SHA-256 digest.
  bool may_be_listed(const hash::Sha256::Digest& digest) const;
  /// A query's routing decision: may_be_listed, counted in
  /// cbl_oprf_client_fastpath_total{result=local|online} when a prefix
  /// list is installed.
  bool fast_path_check(const hash::Sha256::Digest& digest) const;

  // --- Verifiable OPRF ------------------------------------------------------
  /// Pin the server's published key commitment g^R; subsequent prepare()
  /// calls request an evaluation proof and finish() rejects responses
  /// whose DLEQ does not verify against the pinned commitment.
  void pin_key_commitment(const ec::RistrettoPoint& commitment) {
    pinned_commitment_ = commitment;
  }
  void clear_key_commitment() { pinned_commitment_.reset(); }

  // --- Audited mirror ------------------------------------------------------
  using Bucket = std::vector<ec::RistrettoPoint::Encoding>;
  /// Reads one bucket of an audited mirror: the bucket (empty when the
  /// prefix has none) while the mirror stands at the given epoch,
  /// nullopt otherwise.
  using MirrorRead =
      std::function<std::optional<Bucket>(std::uint32_t prefix,
                                          std::uint64_t epoch)>;

  /// Feeds the client from a mirror audited at `epoch`. `changed` names
  /// every prefix whose bucket changed since the previous feed (a prefix
  /// may repeat), a drop_mirror() in between included; nullopt means the
  /// history is unknown (first feed, a restart, a full download).
  /// A cached bucket known to equal the mirror's, and not named, still
  /// does, and advertises `epoch` when it is newer than its own. Any
  /// other prefix not cached at a newer epoch advertises `epoch`, and
  /// when the server omits its bucket, finish() reads the mirror's
  /// through `read`; a cached bucket that differs from it is replaced
  /// and loses its memo. Costs the named buckets; copies none.
  void feed_mirror(std::uint64_t epoch,
                   const std::optional<std::vector<std::uint32_t>>& changed,
                   MirrorRead read);
  /// Stops reading the mirror (its provider failed an audit, or the
  /// mirror moved past the fed epoch). Cached buckets advertise only
  /// their own epochs until the next feed.
  void drop_mirror() { mirror_.reset(); }

  // --- Cache ---------------------------------------------------------------
  void set_api_key(std::string key) { api_key_ = std::move(key); }
  std::size_t cached_buckets() const { return cache_.size(); }
  void clear_cache() { cache_.clear(); }

  unsigned lambda() const { return lambda_; }

 private:
  /// One entry's verdict against a cached bucket version (33 bytes).
  struct MemoEntry {
    hash::Sha256::Digest digest;
    bool listed;
  };
  /// Invariant: `bucket` is the server's bucket at `epoch`, and when
  /// `matches_mirror` is set also the fed mirror's — so a request may
  /// advertise the later of the two epochs.
  struct CachedBucket {
    std::uint64_t epoch;
    Bucket bucket;
    std::vector<Bytes> metadata;
    /// Verdicts judged against this bucket, sorted by digest. A listed
    /// entry with metadata is not memoised: its answer carries plaintext.
    std::vector<MemoEntry> verdicts;
    bool matches_mirror = false;
  };
  struct Mirror {
    std::uint64_t epoch;
    MirrorRead read;
  };

  /// The epoch a request for this cached bucket advertises.
  std::uint64_t advertised_epoch(const CachedBucket& slot) const;

  Oracle oracle_;
  unsigned lambda_;
  Rng& rng_;
  std::string api_key_;
  std::optional<std::vector<std::uint32_t>> prefix_list_;  // sorted
  std::optional<ec::RistrettoPoint> pinned_commitment_;
  std::unordered_map<std::uint32_t, CachedBucket> cache_;
  std::optional<Mirror> mirror_;

  // Observability handles (cbl_oprf_client_* families).
  struct Metrics {
    obs::Counter* fastpath_local;   // prefix list resolved it offline
    obs::Counter* fastpath_online;  // prefix collision, online query needed
    obs::Counter* cache_hits;       // server omitted the bucket
    obs::Counter* cache_misses;     // fresh bucket transferred
    obs::Counter* mirror_reads;     // omitted bucket read from the mirror
    obs::Counter* mirror_refused;   // the mirror no longer stood there
    obs::Counter* memo_hits;        // verdict returned without unblinding
    obs::Counter* memo_misses;      // verdict computed by unblinding
  };
  Metrics metrics_;
};

}  // namespace cbl::oprf
