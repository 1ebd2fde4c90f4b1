#include "tlog/auditor.h"

#include <utility>
#include <vector>

namespace cbl::tlog {

std::string_view Auditor::to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadSignature: return "bad_signature";
    case Status::kInconsistent: return "inconsistent";
    case Status::kEquivocation: return "equivocation";
    case Status::kBadDelta: return "bad_delta";
    case Status::kBadProof: return "bad_proof";
    case Status::kRootMismatch: return "root_mismatch";
    case Status::kDistrusted: return "distrusted";
  }
  return "unknown";
}

Auditor::Auditor(ec::RistrettoPoint provider_pk, std::string endpoint)
    : Auditor(std::move(provider_pk), std::move(endpoint), nullptr) {}

Auditor::Auditor(ec::RistrettoPoint provider_pk, std::string endpoint,
                 store::StateStore* store)
    : provider_pk_(std::move(provider_pk)), store_(store) {
  auto& reg = obs::MetricsRegistry::global();
  const auto audit = [&](Status s) {
    return &reg.counter(
        "cbl_tlog_audit_total",
        {{"endpoint", endpoint}, {"result", std::string(to_string(s))}},
        "Transparency audit checks by outcome");
  };
  metrics_.audit_ok = audit(Status::kOk);
  metrics_.audit_bad_signature = audit(Status::kBadSignature);
  metrics_.audit_inconsistent = audit(Status::kInconsistent);
  metrics_.audit_equivocation = audit(Status::kEquivocation);
  metrics_.audit_bad_delta = audit(Status::kBadDelta);
  metrics_.audit_bad_proof = audit(Status::kBadProof);
  metrics_.audit_root_mismatch = audit(Status::kRootMismatch);
  metrics_.audit_distrusted = audit(Status::kDistrusted);
  metrics_.equivocations =
      &reg.counter("cbl_tlog_equivocations_total", {{"endpoint", endpoint}},
                   "Signed checkpoint pairs proving a split view");
  metrics_.deltas_applied =
      &reg.counter("cbl_tlog_deltas_applied_total", {{"endpoint", endpoint}},
                   "Epoch deltas verified and folded into the mirror");
  metrics_.deltas_rejected =
      &reg.counter("cbl_tlog_deltas_rejected_total", {{"endpoint", endpoint}},
                   "Epoch deltas rejected before folding");
  metrics_.persist_failures =
      &reg.counter("cbl_tlog_persist_failures_total", {{"endpoint", endpoint}},
                   "Audit state changes that could not be made durable");
  metrics_.mirror_epoch =
      &reg.gauge("cbl_tlog_mirror_epoch", {{"endpoint", endpoint}},
                 "Epoch the local bucket mirror sits at");
  if (store_ != nullptr) recover_from_store();
}

obs::Counter* Auditor::audit_counter(Status status) const {
  switch (status) {
    case Status::kOk: return metrics_.audit_ok;
    case Status::kBadSignature: return metrics_.audit_bad_signature;
    case Status::kInconsistent: return metrics_.audit_inconsistent;
    case Status::kEquivocation: return metrics_.audit_equivocation;
    case Status::kBadDelta: return metrics_.audit_bad_delta;
    case Status::kBadProof: return metrics_.audit_bad_proof;
    case Status::kRootMismatch: return metrics_.audit_root_mismatch;
    case Status::kDistrusted: return metrics_.audit_distrusted;
  }
  return metrics_.audit_ok;
}

Auditor::Status Auditor::fail(Status status) {
  if (trusted_ && status != Status::kDistrusted) {
    // First failure: record the root cause and make the latch durable
    // (with its evidence) BEFORE anything else can observe the state —
    // a crash after this line recovers a condemned provider.
    distrust_reason_ = status;
    trusted_ = false;
    persist_distrust_locked(status);
  }
  trusted_ = false;
  audit_counter(status)->inc();
  return status;
}

Auditor::Status Auditor::reject(Status reason) {
  MutexLock lock(mutex_);
  return fail(reason);
}

Auditor::Status Auditor::observe_checkpoint(
    const Checkpoint& checkpoint, const ConsistencyProofMsg* consistency) {
  MutexLock lock(mutex_);
  if (!trusted_) return fail(Status::kDistrusted);
  if (!verify_checkpoint(provider_pk_, checkpoint)) {
    return fail(Status::kBadSignature);
  }
  // Equivocation scan BEFORE any other acceptance logic: two validly
  // signed roots for one size condemn the provider regardless of
  // whatever else the message claims.
  const auto seen = seen_roots_.find(checkpoint.tree_size);
  if (seen != seen_roots_.end() && seen->second.root != checkpoint.root) {
    // Both checkpoints carry valid signatures over the same size and
    // different roots: transferable, restart-surviving proof.
    EquivocationEvidence evidence;
    evidence.first = seen->second;
    evidence.second = checkpoint;
    evidence_ = evidence;
    metrics_.equivocations->inc();
    return fail(Status::kEquivocation);
  }
  seen_roots_.emplace(checkpoint.tree_size, checkpoint);
  if (latest_) {
    if (checkpoint.tree_size < latest_->tree_size) {
      return fail(Status::kInconsistent);  // the log never shrinks
    }
    if (checkpoint.tree_size > latest_->tree_size) {
      if (consistency == nullptr ||
          consistency->old_size != latest_->tree_size ||
          consistency->new_size != checkpoint.tree_size ||
          !chain::MerkleTree::verify_consistency(
              latest_->root, latest_->tree_size, checkpoint.root,
              checkpoint.tree_size, consistency->nodes)) {
        return fail(Status::kInconsistent);
      }
    }
    // Equal sizes with equal roots need no proof.
  }
  latest_ = checkpoint;
  AuditorRecord record;
  record.kind = AuditorRecord::Kind::kCheckpoint;
  record.checkpoint = checkpoint;
  persist_record_locked(record);
  metrics_.audit_ok->inc();
  return Status::kOk;
}

Auditor::Status Auditor::adopt_snapshot(BucketMap snapshot) {
  MutexLock lock(mutex_);
  if (!trusted_) return fail(Status::kDistrusted);
  if (!latest_) return fail(Status::kBadProof);
  mirror_tree_.emplace(snapshot);
  buckets_ = std::move(snapshot);
  mirror_epoch_ = latest_->epoch;
  // A full adoption obsoletes every journal record: compact immediately.
  persist_snapshot_locked();
  metrics_.mirror_epoch->set(static_cast<double>(mirror_epoch_));
  metrics_.audit_ok->inc();
  return Status::kOk;
}

Auditor::Status Auditor::apply_delta(const EpochDelta& delta) {
  MutexLock lock(mutex_);
  if (!trusted_) {
    metrics_.deltas_rejected->inc();
    return fail(Status::kDistrusted);
  }
  if (!has_state_locked()) {
    metrics_.deltas_rejected->inc();
    return fail(Status::kBadDelta);
  }
  const Status status = fold_locked(delta);
  if (status != Status::kOk) {
    metrics_.deltas_rejected->inc();
    return fail(status);
  }
  AuditorRecord record;
  record.kind = AuditorRecord::Kind::kDelta;
  record.delta_bytes = delta.to_bytes();
  persist_record_locked(record);
  metrics_.mirror_epoch->set(static_cast<double>(mirror_epoch_));
  metrics_.deltas_applied->inc();
  metrics_.audit_ok->inc();
  return Status::kOk;
}

Auditor::Status Auditor::fold_locked(const EpochDelta& delta) {
  if (!verify_delta(provider_pk_, delta)) return Status::kBadSignature;
  if (delta.from_epoch != mirror_epoch_) return Status::kBadDelta;
  if (delta.base_bucket_root != mirror_tree_->root()) {
    return Status::kRootMismatch;
  }
  auto touched = fold_touched(buckets_, delta);
  if (!touched) return Status::kBadDelta;
  std::vector<std::uint32_t> changed;
  changed.reserve(touched->size());
  for (const auto& [prefix, entries] : *touched) changed.push_back(prefix);
  exchange_buckets(buckets_, *touched);
  mirror_tree_->update(buckets_, changed);
  if (mirror_tree_->root() != delta.post_bucket_root) {
    // Undo: a second exchange puts the old buckets back, and the tree
    // updated over them recomputes exactly its old nodes.
    exchange_buckets(buckets_, *touched);
    mirror_tree_->update(buckets_, changed);
    return Status::kRootMismatch;
  }
  mirror_epoch_ = delta.to_epoch;
  return Status::kOk;
}

std::optional<std::vector<ec::RistrettoPoint::Encoding>> Auditor::bucket_at(
    std::uint32_t prefix, std::uint64_t epoch) const {
  MutexLock lock(mutex_);
  if (!trusted_ || !has_state_locked() || mirror_epoch_ != epoch) {
    return std::nullopt;
  }
  const auto it = buckets_.find(prefix);
  if (it == buckets_.end()) return std::vector<ec::RistrettoPoint::Encoding>{};
  return it->second;
}

Auditor::Status Auditor::verify_audit_path(std::uint32_t prefix,
                                           const AuditPath& path) {
  MutexLock lock(mutex_);
  if (!trusted_) return fail(Status::kDistrusted);
  if (!latest_ || !has_state_locked()) return fail(Status::kBadProof);
  if (path.epoch != mirror_epoch_ || path.epoch != latest_->epoch) {
    return fail(Status::kBadProof);
  }
  // The served record must carry the bucket root the mirror computed —
  // otherwise the provider's committed state differs from what it sent.
  if (path.bucket_root != mirror_tree_->root()) {
    return fail(Status::kRootMismatch);
  }
  // Bucket leaf: rebuilt from the MIRROR's entries, at the slot the
  // mirror's own prefix ordering dictates.
  const auto bucket_it = buckets_.find(prefix);
  if (bucket_it == buckets_.end()) return fail(Status::kBadProof);
  const std::size_t slot = *mirror_tree_->index_of(prefix);
  if (path.bucket_proof.index != slot ||
      path.bucket_proof.leaf_count != buckets_.size()) {
    return fail(Status::kBadProof);
  }
  if (!chain::MerkleTree::verify_leaf_hash(
          path.bucket_root, slot, buckets_.size(),
          bucket_leaf_hash(prefix, bucket_it->second),
          path.bucket_proof.steps)) {
    return fail(Status::kBadProof);
  }
  // Epoch record leaf under the signed checkpoint, pinned to the LAST
  // slot — the latest epoch's record is by definition the newest leaf.
  if (path.log_proof.leaf_count != latest_->tree_size ||
      latest_->tree_size == 0 ||
      path.log_proof.index != latest_->tree_size - 1) {
    return fail(Status::kBadProof);
  }
  EpochRecord record;
  record.epoch = path.epoch;
  record.bucket_root = path.bucket_root;
  record.delta_digest = path.delta_digest;
  if (!chain::MerkleTree::verify(
          latest_->root, static_cast<std::size_t>(path.log_proof.index),
          static_cast<std::size_t>(path.log_proof.leaf_count),
          record.leaf_payload(), path.log_proof.steps)) {
    return fail(Status::kBadProof);
  }
  metrics_.audit_ok->inc();
  return Status::kOk;
}

namespace {

Auditor::Status status_from_byte(std::uint8_t reason) {
  return reason <= static_cast<std::uint8_t>(Auditor::Status::kDistrusted)
             ? static_cast<Auditor::Status>(reason)
             : Auditor::Status::kDistrusted;
}

}  // namespace

bool Auditor::restore_snapshot_locked(const AuditorSnapshot& snapshot) {
  bool clean = true;
  if (!snapshot.trusted) {
    trusted_ = false;
    distrust_reason_ = status_from_byte(snapshot.distrust_reason);
  }
  if (snapshot.evidence) {
    if (snapshot.evidence->proves_equivocation(provider_pk_)) {
      evidence_ = snapshot.evidence;
      trusted_ = false;
      if (distrust_reason_ == Status::kOk) {
        distrust_reason_ = Status::kEquivocation;
      }
    } else {
      clean = false;  // evidence bytes that no longer condemn: damage
    }
  }
  for (const Checkpoint& checkpoint : snapshot.seen) {
    // At-rest bytes earn no trust: every signature is re-verified. A
    // failure means rot the checksums missed (or tampering) — keep the
    // rest but report damage so the caches get dropped.
    if (!verify_checkpoint(provider_pk_, checkpoint)) {
      clean = false;
      continue;
    }
    seen_roots_.emplace(checkpoint.tree_size, checkpoint);
  }
  if (snapshot.latest) {
    if (verify_checkpoint(provider_pk_, *snapshot.latest)) {
      latest_ = *snapshot.latest;
    } else {
      clean = false;
    }
  }
  if (snapshot.has_mirror && latest_) {
    // The mirror root is never read from disk — recompute it, so the
    // mirror can only ever vouch for the bytes actually recovered.
    buckets_ = snapshot.buckets;
    mirror_tree_.emplace(buckets_);
    mirror_epoch_ = snapshot.mirror_epoch;
  }
  return clean;
}

bool Auditor::replay_record_locked(const AuditorRecord& record) {
  switch (record.kind) {
    case AuditorRecord::Kind::kCheckpoint: {
      const Checkpoint& checkpoint = record.checkpoint;
      if (!verify_checkpoint(provider_pk_, checkpoint)) return false;
      const auto seen = seen_roots_.find(checkpoint.tree_size);
      if (seen != seen_roots_.end() &&
          seen->second.root != checkpoint.root) {
        // Two validly signed roots for one size on disk: the provider
        // forked before the crash — the latch survives it.
        EquivocationEvidence evidence;
        evidence.first = seen->second;
        evidence.second = checkpoint;
        evidence_ = evidence;
        trusted_ = false;
        distrust_reason_ = Status::kEquivocation;
        return true;
      }
      seen_roots_.emplace(checkpoint.tree_size, checkpoint);
      // Monotone adoption makes replay over a newer snapshot (the
      // checkpoint()-then-reset crash window) a harmless no-op.
      if (!latest_ || checkpoint.tree_size >= latest_->tree_size) {
        latest_ = checkpoint;
      }
      return true;
    }
    case AuditorRecord::Kind::kDelta: {
      const auto delta = EpochDelta::from_bytes(record.delta_bytes);
      if (!delta) return false;
      if (!mirror_tree_.has_value()) return true;  // no base: stale record
      if (delta->from_epoch != mirror_epoch_) return true;  // stale replay
      return fold_locked(*delta) == Status::kOk;
    }
    case AuditorRecord::Kind::kDistrust: {
      trusted_ = false;
      distrust_reason_ = status_from_byte(record.distrust_reason);
      if (record.evidence &&
          record.evidence->proves_equivocation(provider_pk_)) {
        evidence_ = record.evidence;
      }
      return true;
    }
  }
  return false;
}

void Auditor::recover_from_store() {
  store::LoadedState loaded = store_->load();
  MutexLock lock(mutex_);
  bool damaged = loaded.corrupt;
  if (loaded.snapshot) {
    const auto snapshot = AuditorSnapshot::from_bytes(*loaded.snapshot);
    if (snapshot) {
      if (!restore_snapshot_locked(*snapshot)) damaged = true;
    } else {
      damaged = true;
    }
  }
  for (const Bytes& raw : loaded.records) {
    const auto record = AuditorRecord::from_bytes(raw);
    if (!record || !replay_record_locked(*record)) damaged = true;
  }
  if (damaged) {
    // Fail safe: at-rest damage beyond a torn tail means the mirror and
    // log-position caches cannot be vouched for — drop them and let the
    // next sync re-download and re-verify from the network. Distrust
    // and evidence recovered from the verified prefix STAND: corruption
    // must never un-condemn a provider.
    buckets_.clear();
    mirror_tree_.reset();
    mirror_epoch_ = 0;
    latest_.reset();
    seen_roots_.clear();
  }
  metrics_.mirror_epoch->set(static_cast<double>(mirror_epoch_));
  // Re-compact what recovery just validated, so the next restart loads
  // one snapshot instead of replaying a long journal (and a normalized
  // image replaces any damaged bytes on disk). A distrusted auditor
  // re-persists through the distrust path so the latch keeps its
  // two-file redundancy across restarts.
  if (trusted_) {
    persist_snapshot_locked();
  } else {
    persist_distrust_locked(distrust_reason_);
  }
}

AuditorSnapshot Auditor::snapshot_locked() const {
  AuditorSnapshot snapshot;
  snapshot.trusted = trusted_;
  snapshot.distrust_reason = static_cast<std::uint8_t>(distrust_reason_);
  snapshot.latest = latest_;
  snapshot.seen.reserve(seen_roots_.size());
  for (const auto& [size, checkpoint] : seen_roots_) {
    snapshot.seen.push_back(checkpoint);
  }
  snapshot.has_mirror = mirror_tree_.has_value();
  snapshot.mirror_epoch = mirror_epoch_;
  snapshot.buckets = buckets_;
  snapshot.evidence = evidence_;
  return snapshot;
}

void Auditor::persist_snapshot_locked() {
  if (store_ == nullptr) return;
  if (!store_->checkpoint(snapshot_locked().to_bytes())) {
    ++persist_failures_;
    metrics_.persist_failures->inc();
  }
}

void Auditor::persist_record_locked(const AuditorRecord& record) {
  if (store_ == nullptr) return;
  if (!store_->append(record.to_bytes())) {
    ++persist_failures_;
    metrics_.persist_failures->inc();
    return;
  }
  if (store_->journal_records() >= kCompactEvery) persist_snapshot_locked();
}

void Auditor::persist_distrust_locked(Status reason) {
  if (store_ == nullptr) return;
  // The latch lands in BOTH files: the compacted snapshot (trusted =
  // false, plus evidence) and a distrust record appended to the freshly
  // reset journal — so losing EITHER file to at-rest rot still leaves
  // the condemned provider condemned. Nothing is written after a
  // distrust (every audit call fails fast), so neither copy is ever
  // compacted away.
  persist_snapshot_locked();
  AuditorRecord record;
  record.kind = AuditorRecord::Kind::kDistrust;
  record.distrust_reason = static_cast<std::uint8_t>(reason);
  record.evidence = evidence_;
  if (!store_->append(record.to_bytes())) {
    ++persist_failures_;
    metrics_.persist_failures->inc();
  }
}

}  // namespace cbl::tlog
