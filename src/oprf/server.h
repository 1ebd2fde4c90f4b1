// The blocklist service provider S of Fig. 2: preprocesses the raw
// blocklist under a secret mask R into 2^lambda prefix buckets, answers
// blinded queries, and optionally publishes the prefix list so clients
// can resolve most negatives locally. Includes the authorized-key rate
// limiter the paper recommends against service-exhaustion attacks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/errors.h"
#include "common/thread_safety.h"
#include "common/rng.h"
#include "ec/ristretto.h"
#include "ec/scalar.h"
#include "obs/metrics.h"
#include "oprf/oracle.h"
#include "nizk/sigma.h"
#include "oprf/protocol.h"

namespace cbl::oprf {

/// Optional metadata source: maps a raw entry to plaintext metadata that
/// the server stores encrypted under a key only derivable by a client who
/// actually holds the listed entry (private-keyword-search-style
/// extension, Section IV-B "Support for metadata query").
using MetadataProvider = std::function<Bytes(const std::string& entry)>;

// Thread safety: queries and the read accessors may run concurrently
// from many threads (the "considerable amount of users simultaneously"
// goal); maintenance operations (setup / rotate_key / add_entries /
// remove_entries / set_metadata_provider) take the write lock and may
// run concurrently with queries but not with each other.

// ct:key-holder — the mask R is the service's long-lived secret.
class OprfServer {
 public:
  OprfServer(Oracle oracle, unsigned lambda, Rng& rng);
  ~OprfServer();

  /// Data preprocessing (stage 1 of Fig. 2): samples a fresh mask R,
  /// blinds every distinct entry (duplicates are listed once) and
  /// partitions into buckets. `num_threads` > 1 parallelizes the
  /// exponentiations as in the paper's 8-core setup.
  void setup(std::span<const std::string> entries, unsigned num_threads = 1)
      CBL_EXCLUDES(data_mutex_);

  /// Key rotation: new R, same data ("S can run this protocol in rotation
  /// whenever there is a demand for adjusting R"). Bumps the epoch, which
  /// invalidates client caches.
  void rotate_key(unsigned num_threads = 1) CBL_EXCLUDES(data_mutex_);

  /// Incremental maintenance under the CURRENT mask R: blinds only the
  /// new entries (one exponentiation each) instead of re-running setup;
  /// a removal reuses the encoding kept at insertion, so it costs a
  /// lookup and a sorted-vector erase. Bumps the epoch once per call and
  /// stamps each touched bucket with it, so client caches of the touched
  /// buckets refresh while the rest stay valid. Returns how many entries
  /// were actually added/removed (duplicates and absentees are skipped).
  std::size_t add_entries(std::span<const std::string> entries)
      CBL_EXCLUDES(data_mutex_);
  std::size_t remove_entries(std::span<const std::string> entries)
      CBL_EXCLUDES(data_mutex_);
  bool serves(const std::string& entry) const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return entry_index_.contains(entry);
  }

  /// Online evaluation (stage 3 of Fig. 2) of a single query: a
  /// one-element evaluate_batch. Throws ProtocolError (with the outcome's
  /// error text) on malformed queries or rate-limit violations.
  QueryResponse handle(const QueryRequest& request)
      CBL_EXCLUDES(data_mutex_, limiter_mutex_, rng_mutex_);

  /// Per-request outcome of evaluate_batch, so one bad request cannot
  /// abort a batch.
  struct BatchOutcome {
    enum class Status : std::uint8_t { kOk, kBadRequest, kRateLimited };
    Status status = Status::kBadRequest;
    /// Why the request was refused; empty on kOk.
    std::string error;
    QueryResponse response;  // populated only when status == kOk
  };

  /// The online evaluation. Each request is rate-limited, validated and
  /// answered independently — a batch of n yields the same bytes as n
  /// one-element batches, apart from the fresh randomness in evaluation
  /// proofs — but all evaluations share one batched encode
  /// (RistrettoPoint::double_and_encode_batch over masked_i * (R/2)),
  /// paying a single field inversion for the whole batch instead of one
  /// inverse square root per query.
  std::vector<BatchOutcome> evaluate_batch(
      std::span<const QueryRequest> requests)
      CBL_EXCLUDES(data_mutex_, limiter_mutex_, rng_mutex_);

  /// The published key commitment g^R for the current epoch (the
  /// verifiable-OPRF anchor clients verify evaluation proofs against).
  /// Returned by value: a reference could be read mid-rotation while
  /// rebuild() swaps in the next epoch's commitment.
  ec::RistrettoPoint key_commitment() const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return key_commitment_;
  }

  static constexpr std::string_view kEvalProofDomain =
      "cbl/oprf/evaluation-proof/v1";

  /// Sorted list of non-empty prefixes, for distribution to clients.
  std::vector<std::uint32_t> prefix_list() const CBL_EXCLUDES(data_mutex_);

  using BucketContents =
      std::map<std::uint32_t, std::vector<ec::RistrettoPoint::Encoding>>;

  /// Snapshot of every non-empty bucket's blinded entries (sorted within
  /// each bucket), keyed by prefix. The encodings are public data — the
  /// same bytes any querying client receives in bucket responses.
  BucketContents bucket_snapshot() const CBL_EXCLUDES(data_mutex_);

  /// What the transparency-log publisher reads per epoch: the current
  /// epoch and the buckets that changed after epoch `since`, under one
  /// reader lock so no change can land between the two.
  struct BucketChanges {
    std::uint64_t epoch = 0;
    /// Set when `since` predates the key floor (a setup, rotation or
    /// restore_epoch changed every bucket since) or exceeds the epoch
    /// (pass kNoEpoch for "nothing known"); `buckets` then holds every
    /// non-empty bucket.
    bool complete = false;
    /// Current contents of each changed bucket; a bucket a removal
    /// emptied maps to an empty vector.
    BucketContents buckets;
  };
  BucketChanges bucket_changes_since(std::uint64_t since) const
      CBL_EXCLUDES(data_mutex_);

  std::uint64_t epoch() const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return epoch_;
  }

  /// Crash-recovery support: raises the epoch to at least `floor`. A
  /// rebuilt server restarts epoch numbering from zero, so without this
  /// a recovered service could re-serve an epoch number that clients
  /// already cached buckets for — under a DIFFERENT mask R, turning the
  /// stale cache into silently wrong membership answers. Recovery code
  /// must call this with (last served epoch) before going live; the next
  /// setup/rotation then advances past every epoch ever served. Raising
  /// also lifts the key floor above every epoch up to `floor`, so no
  /// cache hint from before the crash is honoured.
  void restore_epoch(std::uint64_t floor) CBL_EXCLUDES(data_mutex_);

  /// Installs a hook invoked (under the data write lock) with the new
  /// epoch number at every epoch change — rebuilds, add/remove batches,
  /// and restore_epoch. Recovery code points this at a durable
  /// store::EpochLog so the "never recycle a served epoch" floor
  /// survives a crash; the hook must not call back into the server.
  /// Installing also fires the hook with the current epoch when it is
  /// non-zero, so the floor covers epochs served before installation.
  void set_epoch_listener(std::function<void(std::uint64_t)> listener)
      CBL_EXCLUDES(data_mutex_);
  unsigned lambda() const { return lambda_; }
  std::size_t entry_count() const CBL_EXCLUDES(data_mutex_) {
    cbl::ReaderMutexLock lock(data_mutex_);
    return entry_index_.size();
  }

  struct BucketStats {
    std::size_t buckets_total = 0;      // 2^lambda
    std::size_t buckets_nonempty = 0;
    std::size_t min_size = 0;           // over non-empty buckets
    std::size_t max_size = 0;
    double avg_size = 0.0;              // over all 2^lambda buckets
    /// The k of k-anonymity: a query is hidden among the entries of its
    /// bucket, so the guarantee is the minimum non-empty bucket size.
    std::size_t k_anonymity = 0;
    std::size_t avg_response_bytes = 0;
  };
  BucketStats stats() const CBL_EXCLUDES(data_mutex_);

  /// Sizes of all non-empty buckets (input to anonymity analysis).
  std::vector<std::size_t> bucket_sizes() const CBL_EXCLUDES(data_mutex_);

  // --- Rate limiting (authorized keys) -----------------------------------
  // All limiter maintenance locks limiter_mutex_ so it is safe against a
  // concurrent evaluate_batch limiter pass.
  void enable_rate_limiting(std::uint32_t max_queries_per_window)
      CBL_EXCLUDES(limiter_mutex_);
  void authorize_key(const std::string& key) CBL_EXCLUDES(limiter_mutex_);
  void revoke_key(const std::string& key) CBL_EXCLUDES(limiter_mutex_);
  /// Starts a new accounting window (driven by the host's clock).
  void advance_window() CBL_EXCLUDES(limiter_mutex_);

  // --- Metadata extension -------------------------------------------------
  void set_metadata_provider(MetadataProvider provider)
      CBL_EXCLUDES(data_mutex_);

  /// Derives the symmetric key protecting entry metadata from the OPRF
  /// output F(R, entry) = H(entry)^R. Exposed so the client can derive
  /// the same key after unblinding.
  static std::array<std::uint8_t, 32> metadata_key(
      const ec::RistrettoPoint::Encoding& oprf_output);

  /// Encrypts/decrypts metadata under a key (ChaCha20 stream + HMAC tag).
  static Bytes seal_metadata(const std::array<std::uint8_t, 32>& key,
                             ByteView plaintext);
  static std::optional<Bytes> open_metadata(
      const std::array<std::uint8_t, 32>& key, ByteView ciphertext);

 private:
  struct Bucket {
    std::vector<ec::RistrettoPoint::Encoding> blinded;  // sorted
    std::vector<Bytes> metadata;                        // aligned with blinded
  };
  /// Where a listed entry sits: its bucket and its blinded encoding.
  struct Entry {
    std::uint32_t prefix = 0;
    ec::RistrettoPoint::Encoding blinded{};
  };

  /// Full preprocessing pass under a fresh mask. Takes rng_mutex_ for
  /// the mask sampling (nested inside the already-held exclusive data
  /// lock — see the DESIGN.md lock-ordering table).
  void rebuild(unsigned num_threads) CBL_REQUIRES(data_mutex_)
      CBL_EXCLUDES(rng_mutex_);
  /// One entry_index_ element: the entry and where it sits.
  using IndexSlot = std::pair<const std::string, Entry>;
  /// Fills each slot's Entry: the prefix, and the blinded encoding
  /// H(q)^R computed as H(q)^(R/2) batch-doubled, so the whole span pays
  /// one field inversion. Reads no guarded state, so rebuild's workers
  /// call it with the mask bound under the caller's lock.
  void blind_into(std::span<IndexSlot* const> slots,
                  const Secret<ec::Scalar>& half_mask) const;
  /// Files one blinded entry (and its metadata) in its bucket; returns
  /// its prefix.
  std::uint32_t insert_into_bucket(const IndexSlot& slot)
      CBL_REQUIRES(data_mutex_);
  /// Bumps the epoch after an add/remove batch and stamps the touched
  /// buckets with it.
  void note_bucket_changes_locked(const std::vector<std::uint32_t>& prefixes)
      CBL_REQUIRES(data_mutex_);
  /// The bucket-cache rule: a client's copy of `prefix` from epoch
  /// `cached` is still current.
  bool bucket_current_at(std::uint32_t prefix, std::uint64_t cached) const
      CBL_REQUIRES_SHARED(data_mutex_);
  /// Fires the epoch listener (if any) with the current epoch.
  void note_epoch_locked() CBL_REQUIRES(data_mutex_);

  const Oracle oracle_;  // stateless hash-to-group; safe to share
  const unsigned lambda_;

  mutable cbl::SharedMutex data_mutex_;  // lock: buckets / mask / epoch
  // ct:secret — the mask R. half_mask_ is R * 2^-1 mod l, refreshed with
  // mask_: the double-and-encode kernels produce encodings of 2*P, so hot
  // paths exponentiate by R/2 and let those kernels supply the doubling.
  // ct:secret
  Secret<ec::Scalar> mask_ CBL_GUARDED_BY(data_mutex_);
  Secret<ec::Scalar> half_mask_ CBL_GUARDED_BY(data_mutex_);
  ec::RistrettoPoint key_commitment_ CBL_GUARDED_BY(data_mutex_);  // g^R
  std::uint64_t epoch_ CBL_GUARDED_BY(data_mutex_) = 0;
  /// Durability hook: told about every epoch change while the write
  /// lock is held, so the durable floor can never lag a served epoch.
  std::function<void(std::uint64_t)> epoch_listener_
      CBL_GUARDED_BY(data_mutex_);
  /// The list itself: every served entry, once.
  std::unordered_map<std::string, Entry> entry_index_
      CBL_GUARDED_BY(data_mutex_);
  std::map<std::uint32_t, Bucket> buckets_ CBL_GUARDED_BY(data_mutex_);
  /// Epoch of each bucket's last add/remove since the key floor, emptied
  /// buckets included; cleared by every rebuild.
  std::map<std::uint32_t, std::uint64_t> bucket_changed_at_
      CBL_GUARDED_BY(data_mutex_);
  /// No bucket content from before this epoch is current: rebuild sets it
  /// to the new key's epoch, restore_epoch past the restored epoch.
  std::uint64_t key_floor_ CBL_GUARDED_BY(data_mutex_) = 0;
  MetadataProvider metadata_provider_ CBL_GUARDED_BY(data_mutex_);

  mutable cbl::Mutex limiter_mutex_;  // lock: rate-limiter config/counters
  // lock:unguarded(atomic on/off switch; the guarded limiter state below
  // is published before the release store that flips it on)
  std::atomic<bool> rate_limiting_{false};
  std::uint32_t max_per_window_ CBL_GUARDED_BY(limiter_mutex_) = 0;
  std::unordered_map<std::string, std::uint32_t> window_counts_
      CBL_GUARDED_BY(limiter_mutex_);
  std::unordered_map<std::string, bool> authorized_
      CBL_GUARDED_BY(limiter_mutex_);

  mutable cbl::Mutex rng_mutex_;  // lock: rng_ (evaluation-proof randomness)
  Rng& rng_ CBL_GUARDED_BY(rng_mutex_);

  // Observability handles (process-global cbl_oprf_* families, resolved
  // once in the constructor; see DESIGN.md "Observability").
  struct Metrics {
    obs::Counter* queries_ok;
    obs::Counter* queries_rate_limited;
    obs::Counter* queries_bad_request;
    obs::Counter* buckets_served;
    obs::Counter* buckets_omitted;  // client cache hits server-side
    obs::Counter* rebuilds;
    obs::Histogram* eval_ms;
    obs::Histogram* rebuild_ms;
    obs::Histogram* bucket_size;
    obs::Gauge* entries;
    obs::Gauge* epoch;
    obs::Gauge* buckets_nonempty;
    obs::Gauge* k_anonymity;
  };
  // lock:unguarded(handles resolved once in the constructor; increments
  // are lock-free atomics)
  Metrics metrics_;
  void refresh_data_gauges() CBL_REQUIRES(data_mutex_);
};

}  // namespace cbl::oprf
