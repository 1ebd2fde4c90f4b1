// Client-side transparency auditor: holds one provider's pinned signing
// key, the latest signed checkpoint accepted from it, and a local
// mirror of the bucket set. Every message the provider serves is
// checked here — checkpoint signatures, append-only consistency,
// equivocation (same tree size, different root), delta base/post bucket
// roots, and audit-path inclusion — and any failure latches a sticky
// distrust flag. The auditor operates purely on parsed messages; the
// wire loop that feeds it lives in net::RemoteBlocklistClient
// (verified_sync) so this library stays below the net layer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/thread_safety.h"
#include "ec/ristretto.h"
#include "obs/metrics.h"
#include "store/state_store.h"
#include "tlog/checkpoint.h"
#include "tlog/delta.h"
#include "tlog/log.h"
#include "tlog/persist.h"
#include "tlog/proof.h"

namespace cbl::tlog {

class Auditor {
 public:
  enum class Status : std::uint8_t {
    kOk = 0,
    kBadSignature,   // checkpoint/delta signature failed under pinned key
    kInconsistent,   // log shrank or consistency proof failed
    kEquivocation,   // two signed roots for one tree size
    kBadDelta,       // delta does not bridge the mirror state it claims
    kBadProof,       // malformed/mis-slotted inclusion proof
    kRootMismatch,   // verified artifact disagrees with the mirror root
    kDistrusted,     // a previous failure latched distrust; refused unseen
  };

  /// `endpoint` labels this auditor's cbl_tlog_* metric slices.
  Auditor(ec::RistrettoPoint provider_pk, std::string endpoint);

  /// As above, plus durability: recovers all audit state — the distrust
  /// latch, equivocation evidence, seen roots, latest checkpoint and the
  /// bucket mirror — from `store` (which must outlive the auditor), and
  /// persists every later state change back through it. Recovery treats
  /// at-rest bytes as untrusted: every signature is re-verified, the
  /// mirror root is recomputed, and any damage beyond a torn journal
  /// tail drops the caches (forcing a full resync) while preserving any
  /// verified distrust — a condemned provider stays condemned.
  Auditor(ec::RistrettoPoint provider_pk, std::string endpoint,
          store::StateStore* store);

  // Thread safety: every public method locks the auditor's own mutex,
  // so N threads feeding it the same evidence converge on exactly one
  // failure transition — the first latches distrust (and counts the
  // root cause, e.g. kEquivocation, once); every later observer gets
  // kDistrusted. Accessors return snapshots by value, never references
  // into state a concurrent audit could be rewriting.

  /// Feeds a freshly fetched checkpoint. When the log grew since the
  /// last accepted checkpoint, `consistency` must carry the proof for
  /// (previous size -> new size); it may be null on first contact or
  /// when the size is unchanged. Any non-kOk outcome latches distrust.
  Status observe_checkpoint(const Checkpoint& checkpoint,
                            const ConsistencyProofMsg* consistency)
      CBL_EXCLUDES(mutex_);

  /// Installs a full bucket snapshot as the mirror at the latest
  /// checkpoint's epoch (first sync, or recovery after falling behind).
  /// Binding of the mirror root to the signed checkpoint happens in
  /// verify_audit_path.
  Status adopt_snapshot(BucketMap snapshot) CBL_EXCLUDES(mutex_);

  /// Folds a signed one-step delta into the mirror: checks the
  /// signature, the claimed base epoch and base root against the mirror,
  /// folds copies of the touched buckets, and requires the kept mirror
  /// tree, updated over them, to hash to the signed post root. Only a
  /// match commits; any other outcome leaves the mirror, its root and its
  /// tree as they were.
  Status apply_delta(const EpochDelta& delta) CBL_EXCLUDES(mutex_);

  /// Checks a served audit path against the mirror and the latest
  /// checkpoint: the bucket leaf is rebuilt from the MIRROR's entries
  /// for `prefix` (slot and count must match the mirror's own ordering),
  /// the epoch record leaf is rebuilt from the path fields with the
  /// mirror's bucket root, and both inclusion proofs are index-bound
  /// verified — the bucket leaf under the record's bucket root, the
  /// record under the signed checkpoint root at slot tree_size - 1.
  Status verify_audit_path(std::uint32_t prefix, const AuditPath& path)
      CBL_EXCLUDES(mutex_);

  /// Latches distrust on evidence judged before it reaches a check
  /// above: a checksum-valid body that does not decode, or deltas that
  /// stop short of the signed checkpoint. `reason` (not kOk) names the
  /// artifact at fault; the latch is counted and persisted exactly as a
  /// failed check's is, so the provider stays condemned across restarts.
  Status reject(Status reason) CBL_EXCLUDES(mutex_);

  /// False once any audit check has failed; never resets. A distrusted
  /// provider's data must not be folded into caches (the resilient
  /// client drops to the degradation ladder instead).
  bool trusted() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return trusted_;
  }

  bool has_state() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return mirror_tree_.has_value();
  }
  std::uint64_t mirror_epoch() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return mirror_epoch_;
  }
  /// Mirror snapshot, by value: a reference would dangle into state a
  /// concurrent apply_delta may replace.
  BucketMap buckets() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return buckets_;
  }
  /// Precondition: has_state().
  Digest mirror_root() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return mirror_tree_->root();
  }
  /// The lowest mirrored prefix (what a sync requests its audit path
  /// for), or nullopt when the mirror is empty or absent.
  std::optional<std::uint32_t> first_prefix() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    if (buckets_.empty()) return std::nullopt;
    return buckets_.begin()->first;
  }
  std::optional<Checkpoint> latest_checkpoint() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return latest_;
  }
  /// The signed checkpoint pair that condemned the provider, if the
  /// distrust latch was tripped by equivocation. Transferable proof:
  /// survives restarts via the attached store.
  std::optional<EquivocationEvidence> equivocation_evidence() const
      CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return evidence_;
  }
  /// Appends/checkpoints that could not be made durable (each one means
  /// a crash right now would forget the corresponding state change).
  std::uint64_t persist_failures() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return persist_failures_;
  }

  static std::string_view to_string(Status status);

 private:
  Status fail(Status status) CBL_REQUIRES(mutex_);
  /// The one fold path, shared by apply_delta and journal replay:
  /// signature, base epoch and base root, then the touched-bucket fold
  /// and the post root on the kept tree; commits only on kOk.
  /// Precondition: has_state_locked().
  Status fold_locked(const EpochDelta& delta) CBL_REQUIRES(mutex_);
  /// Recovery from the attached store (constructor-time only).
  void recover_from_store() CBL_EXCLUDES(mutex_);
  /// Folds one verified snapshot into blank state; returns false when
  /// anything inside failed re-verification (treated as damage).
  bool restore_snapshot_locked(const AuditorSnapshot& snapshot)
      CBL_REQUIRES(mutex_);
  /// Replays one journal record (idempotent and monotone, so replaying
  /// a stale journal over a newer snapshot is harmless); returns false
  /// on re-verification failure.
  bool replay_record_locked(const AuditorRecord& record)
      CBL_REQUIRES(mutex_);
  AuditorSnapshot snapshot_locked() const CBL_REQUIRES(mutex_);
  /// Durably appends one record, compacting into a snapshot when the
  /// journal has grown past kCompactEvery records.
  void persist_record_locked(const AuditorRecord& record)
      CBL_REQUIRES(mutex_);
  void persist_snapshot_locked() CBL_REQUIRES(mutex_);
  void persist_distrust_locked(Status reason) CBL_REQUIRES(mutex_);
  /// Lock-free view of has_state() for use while mutex_ is held.
  bool has_state_locked() const CBL_REQUIRES(mutex_) {
    return mirror_tree_.has_value();
  }

  /// Journal records accumulated before compacting into a snapshot.
  static constexpr std::size_t kCompactEvery = 64;

  const ec::RistrettoPoint provider_pk_;
  /// Durable backing, or null for a purely in-memory auditor. The
  /// pointee outlives the auditor; all access runs under mutex_ (lock
  /// order: Auditor::mutex_ before any Fs mutex inside the store).
  store::StateStore* const store_;

  mutable cbl::Mutex mutex_;  // lock: audit state and the distrust latch
  bool trusted_ CBL_GUARDED_BY(mutex_) = true;
  Status distrust_reason_ CBL_GUARDED_BY(mutex_) = Status::kOk;

  std::optional<Checkpoint> latest_ CBL_GUARDED_BY(mutex_);
  /// Every checkpoint ever accepted under a valid signature, keyed by
  /// tree size; a second root for a known size is proof of equivocation
  /// (and keeping the full signed checkpoint makes that proof
  /// transferable — see EquivocationEvidence).
  std::map<std::uint64_t, Checkpoint> seen_roots_ CBL_GUARDED_BY(mutex_);
  std::optional<EquivocationEvidence> evidence_ CBL_GUARDED_BY(mutex_);
  std::uint64_t persist_failures_ CBL_GUARDED_BY(mutex_) = 0;

  BucketMap buckets_ CBL_GUARDED_BY(mutex_);
  /// Merkle tree over buckets_, kept across folds; its root is the
  /// mirror root. Absent until the first adoption.
  std::optional<BucketTree> mirror_tree_ CBL_GUARDED_BY(mutex_);
  std::uint64_t mirror_epoch_ CBL_GUARDED_BY(mutex_) = 0;

  struct Metrics {
    obs::Counter* audit_ok;
    obs::Counter* audit_bad_signature;
    obs::Counter* audit_inconsistent;
    obs::Counter* audit_equivocation;
    obs::Counter* audit_bad_delta;
    obs::Counter* audit_bad_proof;
    obs::Counter* audit_root_mismatch;
    obs::Counter* audit_distrusted;
    obs::Counter* equivocations;
    obs::Counter* deltas_applied;
    obs::Counter* deltas_rejected;
    obs::Counter* persist_failures;
    obs::Gauge* mirror_epoch;
  };
  // lock:unguarded(handles resolved once in the constructor; increments
  // are lock-free atomics)
  Metrics metrics_;
  obs::Counter* audit_counter(Status status) const;
};

}  // namespace cbl::tlog
