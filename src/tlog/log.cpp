#include "tlog/log.h"

#include <algorithm>

#include "ec/codec.h"

namespace cbl::tlog {

Bytes EpochRecord::leaf_payload() const {
  ec::WireWriter w;
  w.u64(epoch);
  w.raw(ByteView(bucket_root.data(), bucket_root.size()));
  w.raw(ByteView(delta_digest.data(), delta_digest.size()));
  return w.take();
}

Bytes bucket_leaf_payload(
    std::uint32_t prefix,
    const std::vector<ec::RistrettoPoint::Encoding>& entries) {
  ec::WireWriter w;
  w.u32(prefix);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) w.raw(ByteView(e.data(), e.size()));
  return w.take();
}

namespace {

std::vector<Bytes> bucket_leaves(const BucketMap& buckets) {
  std::vector<Bytes> leaves;
  leaves.reserve(buckets.size());
  for (const auto& [prefix, entries] : buckets) {
    leaves.push_back(bucket_leaf_payload(prefix, entries));
  }
  return leaves;
}

}  // namespace

BucketTree::BucketTree(const BucketMap& buckets)
    : tree_(bucket_leaves(buckets)) {
  prefixes_.reserve(buckets.size());
  for (const auto& [prefix, entries] : buckets) prefixes_.push_back(prefix);
}

void BucketTree::update(const BucketMap& buckets,
                        const std::vector<std::uint32_t>& changed) {
  std::vector<chain::MerkleTree::LeafUpdate> updates;
  updates.reserve(changed.size());
  for (const std::uint32_t prefix : changed) {
    const auto slot = index_of(prefix);
    const auto it = buckets.find(prefix);
    if (slot.has_value() != (it != buckets.end())) {
      *this = BucketTree(buckets);
      return;
    }
    if (slot) {
      updates.push_back({*slot, bucket_leaf_payload(prefix, it->second)});
    }
  }
  tree_.update(updates);
}

std::optional<std::size_t> BucketTree::index_of(std::uint32_t prefix) const {
  const auto it =
      std::lower_bound(prefixes_.begin(), prefixes_.end(), prefix);
  if (it == prefixes_.end() || *it != prefix) return std::nullopt;
  return static_cast<std::size_t>(it - prefixes_.begin());
}

InclusionProof BucketTree::prove(std::size_t index) const {
  InclusionProof proof;
  proof.index = index;
  proof.leaf_count = tree_.leaf_count();
  proof.steps = tree_.prove(index);
  return proof;
}

std::size_t TransparencyLog::append(const EpochRecord& record) {
  records_.push_back(record);
  tree_.append(record.leaf_payload());
  return records_.size();
}

std::optional<std::size_t> TransparencyLog::index_of_epoch(
    std::uint64_t epoch) const {
  // Epochs are appended in increasing order but need not be contiguous
  // (rotations may skip numbers), so binary-search the records.
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), epoch,
      [](const EpochRecord& r, std::uint64_t e) { return r.epoch < e; });
  if (it == records_.end() || it->epoch != epoch) return std::nullopt;
  return static_cast<std::size_t>(it - records_.begin());
}

InclusionProof TransparencyLog::prove_record(std::size_t index) const {
  InclusionProof proof;
  proof.index = index;
  proof.leaf_count = records_.size();
  proof.steps = tree_.prove(index);
  return proof;
}

chain::MerkleTree::ConsistencyProof TransparencyLog::prove_consistency(
    std::size_t old_size) const {
  return tree_.prove_consistency(old_size);
}

}  // namespace cbl::tlog
