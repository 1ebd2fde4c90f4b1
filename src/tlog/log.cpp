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

Digest bucket_leaf_hash(
    std::uint32_t prefix,
    const std::vector<ec::RistrettoPoint::Encoding>& entries) {
  std::uint8_t header[8];
  store_le32(header, prefix);
  store_le32(header + 4, static_cast<std::uint32_t>(entries.size()));
  hash::Sha256 h = chain::MerkleTree::leaf_hasher();
  h.update(ByteView(header, sizeof header));
  for (const auto& e : entries) h.update(ByteView(e.data(), e.size()));
  return h.finalize();
}

namespace {

std::vector<Digest> bucket_leaf_hashes(const BucketMap& buckets) {
  std::vector<Digest> hashes;
  hashes.reserve(buckets.size());
  for (const auto& [prefix, entries] : buckets) {
    hashes.push_back(bucket_leaf_hash(prefix, entries));
  }
  return hashes;
}

}  // namespace

BucketTree::BucketTree(const BucketMap& buckets)
    : tree_(chain::MerkleTree::from_leaf_hashes(bucket_leaf_hashes(buckets))) {
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
      reshape(buckets, changed);
      return;
    }
    if (slot) updates.push_back({*slot, bucket_leaf_hash(prefix, it->second)});
  }
  tree_.update(updates);
}

void BucketTree::reshape(const BucketMap& buckets,
                         std::vector<std::uint32_t> changed) {
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  const std::vector<Digest>& old_hashes = tree_.leaf_hashes();
  std::vector<std::uint32_t> prefixes;
  std::vector<Digest> hashes;
  prefixes.reserve(prefixes_.size() + changed.size());
  hashes.reserve(prefixes_.size() + changed.size());
  // Merge the old slots with the changed prefixes, both ascending: an
  // unchanged bucket keeps its hash, a changed one is rehashed if it is
  // still present and dropped otherwise.
  std::size_t i = 0;
  for (const std::uint32_t prefix : changed) {
    for (; i < prefixes_.size() && prefixes_[i] < prefix; ++i) {
      prefixes.push_back(prefixes_[i]);
      hashes.push_back(old_hashes[i]);
    }
    if (i < prefixes_.size() && prefixes_[i] == prefix) ++i;
    const auto it = buckets.find(prefix);
    if (it == buckets.end()) continue;
    prefixes.push_back(prefix);
    hashes.push_back(bucket_leaf_hash(prefix, it->second));
  }
  prefixes.insert(prefixes.end(), prefixes_.begin() + static_cast<long>(i),
                  prefixes_.end());
  hashes.insert(hashes.end(), old_hashes.begin() + static_cast<long>(i),
                old_hashes.end());
  prefixes_ = std::move(prefixes);
  tree_ = chain::MerkleTree::from_leaf_hashes(std::move(hashes));
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
