#include "tlog/publisher.h"

#include <utility>

namespace cbl::tlog {

EpochPublisher::EpochPublisher(nizk::SigningKey key, Rng& rng)
    : key_(std::move(key)), rng_(rng) {
  auto& reg = obs::MetricsRegistry::global();
  metrics_.epochs_published =
      &reg.counter("cbl_tlog_epochs_published_total", {},
                   "Epochs committed to the transparency log");
  metrics_.log_size =
      &reg.gauge("cbl_tlog_log_size", {}, "Transparency log leaf count");
}

Checkpoint EpochPublisher::publish_epoch(const oprf::OprfServer& server) {
  cbl::MutexLock lock(mutex_);
  publish_locked(server);
  return checkpoint_;
}

Checkpoint EpochPublisher::latest_checkpoint() const {
  cbl::MutexLock lock(mutex_);
  return checkpoint_;
}

void EpochPublisher::publish_locked(const oprf::OprfServer& server) {
  const bool first = log_.size() == 0;
  auto changes =
      server.bucket_changes_since(first ? oprf::kNoEpoch : published_epoch_);
  const std::uint64_t epoch = changes.epoch;
  if (!first && epoch == published_epoch_) return;

  const Digest base_root = first ? Digest{} : bucket_tree_->root();
  EpochDelta delta;
  if (changes.complete) {
    // First publication, or a key change re-blinded every bucket.
    if (!first) delta = diff_buckets(buckets_, changes.buckets);
    buckets_ = std::move(changes.buckets);
    bucket_tree_.emplace(buckets_);
  } else {
    // Only the changed buckets can differ, so the delta over them is the
    // whole delta, and the kept tree rehashes just their leaves.
    BucketMap base;
    std::vector<std::uint32_t> changed;
    changed.reserve(changes.buckets.size());
    for (const auto& [prefix, entries] : changes.buckets) {
      changed.push_back(prefix);
      const auto it = buckets_.find(prefix);
      if (it != buckets_.end()) base.emplace_hint(base.end(), *it);
    }
    delta = diff_buckets(base, changes.buckets);
    exchange_buckets(buckets_, changes.buckets);
    bucket_tree_->update(buckets_, changed);
  }

  EpochRecord record;
  record.epoch = epoch;
  record.bucket_root = bucket_tree_->root();
  if (!first) {
    delta.from_epoch = published_epoch_;
    delta.to_epoch = epoch;
    delta.base_bucket_root = base_root;
    delta.post_bucket_root = bucket_tree_->root();
    delta = sign_delta(key_, std::move(delta), rng_);
    record.delta_digest = delta.digest();
    deltas_.emplace(published_epoch_, std::move(delta));
  }
  // The first record keeps an all-zero delta digest: there is no prior
  // state to bridge from.
  log_.append(record);

  published_epoch_ = epoch;
  checkpoint_ =
      sign_checkpoint(key_, log_.size(), log_.root(), epoch, rng_);
  metrics_.epochs_published->inc();
  metrics_.log_size->set(static_cast<double>(log_.size()));
}

std::optional<SyncBundle> EpochPublisher::sync(
    const oprf::OprfServer& server, const SyncRequest& request) {
  cbl::MutexLock lock(mutex_);
  publish_locked(server);
  if (request.known_size > log_.size()) return std::nullopt;

  SyncBundle bundle;
  bundle.checkpoint = checkpoint_.to_bytes();
  if (request.known_size > 0 && request.known_size < log_.size()) {
    bundle.consistency = encode_consistency_proof(
        {request.known_size, log_.size(),
         log_.prove_consistency(static_cast<std::size_t>(request.known_size))});
  }
  if (request.mirror_epoch == oprf::kNoEpoch) {
    bundle.snapshot = encode_bucket_map(buckets_);
  } else {
    for (std::uint64_t epoch = request.mirror_epoch;
         epoch < published_epoch_;) {
      const auto it = deltas_.find(epoch);
      if (it == deltas_.end()) return std::nullopt;
      bundle.deltas.push_back(it->second.to_bytes());
      epoch = it->second.to_epoch;
    }
  }
  if (!buckets_.empty()) {
    // The lowest prefix's bucket leaf sits at slot 0 of the bucket tree;
    // the epoch record is the log's last leaf.
    const std::size_t last = log_.size() - 1;
    const EpochRecord& record = log_.record(last);
    bundle.audit_path = encode_audit_path(
        {record.epoch, record.bucket_root, record.delta_digest,
         bucket_tree_->prove(0), log_.prove_record(last)});
  }
  return bundle;
}

}  // namespace cbl::tlog
