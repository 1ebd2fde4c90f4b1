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

const Checkpoint& EpochPublisher::publish_epoch(
    const oprf::OprfServer& server) {
  auto changes =
      server.bucket_changes_since(published() ? published_epoch_
                                              : oprf::kNoEpoch);
  const std::uint64_t epoch = changes.epoch;
  if (published() && epoch == published_epoch_) return checkpoint_;

  const Digest base_root = published() ? bucket_tree_->root() : Digest{};
  EpochDelta delta;
  if (changes.complete) {
    // First publication, or a key change re-blinded every bucket.
    if (published()) delta = diff_buckets(buckets_, changes.buckets);
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
  if (published()) {
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
  return checkpoint_;
}

std::optional<EpochDelta> EpochPublisher::delta_from(
    std::uint64_t from_epoch) const {
  const auto it = deltas_.find(from_epoch);
  if (it == deltas_.end()) return std::nullopt;
  return it->second;
}

std::optional<AuditPath> EpochPublisher::audit_path(
    std::uint32_t prefix) const {
  if (!published()) return std::nullopt;
  const auto bucket_index = bucket_tree_->index_of(prefix);
  if (!bucket_index) return std::nullopt;
  AuditPath path;
  const std::size_t record_index = log_.size() - 1;
  const EpochRecord& record = log_.record(record_index);
  path.epoch = record.epoch;
  path.bucket_root = record.bucket_root;
  path.delta_digest = record.delta_digest;
  path.bucket_proof = bucket_tree_->prove(*bucket_index);
  path.log_proof = log_.prove_record(record_index);
  return path;
}

ConsistencyProofMsg EpochPublisher::consistency(
    std::uint64_t old_size) const {
  ConsistencyProofMsg msg;
  msg.old_size = old_size;
  msg.new_size = log_.size();
  if (old_size <= log_.size()) {
    msg.nodes = log_.prove_consistency(static_cast<std::size_t>(old_size));
  }
  return msg;
}

}  // namespace cbl::tlog
