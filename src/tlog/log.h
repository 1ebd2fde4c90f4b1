// The two commitment layers of the transparency log:
//
//   BucketTree      — Merkle tree over one epoch's bucket set (one leaf
//                     per non-empty prefix, in prefix order);
//   TransparencyLog — append-only Merkle log with one EpochRecord leaf
//                     per published epoch, committing that epoch's
//                     bucket root and the digest of the delta that
//                     produced it.
//
// Both are plain in-memory structures on the provider side; clients
// never build the full log — they check inclusion/consistency proofs
// against signed checkpoints (see auditor.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/merkle.h"
#include "tlog/delta.h"
#include "tlog/proof.h"

namespace cbl::tlog {

/// What one log leaf commits to. The leaf payload is the canonical
/// encoding below; both sides reconstruct it independently, so the log
/// binds the provider to (epoch, bucket set, delta) as a unit.
struct EpochRecord {
  std::uint64_t epoch = 0;
  Digest bucket_root{};   // BucketTree root of the epoch's bucket set
  Digest delta_digest{};  // EpochDelta::digest() bridging from the
                          // previous record (all-zero for the first)

  Bytes leaf_payload() const;
};

/// Merkle leaf hash of one prefix bucket: MerkleTree::hash_leaf over the
/// canonical payload le32 prefix ‖ le32 entry count ‖ the sorted entry
/// encodings, streamed into one SHA-256 without building the payload.
Digest bucket_leaf_hash(
    std::uint32_t prefix,
    const std::vector<ec::RistrettoPoint::Encoding>& entries);

/// Merkle tree over a bucket snapshot, one leaf per non-empty prefix in
/// ascending prefix order.
class BucketTree {
 public:
  explicit BucketTree(const BucketMap& buckets);

  /// Moves the tree to `buckets`, which may differ from the map the tree
  /// was last brought to only in the buckets of `changed` (any order).
  /// While the set of non-empty prefixes stays the same, the changed
  /// leaves are updated in place (one rehash per touched node). A bucket
  /// that appears or empties shifts every later slot, so then the leaf
  /// level is spliced instead: unchanged buckets keep their stored leaf
  /// hashes, only changed non-empty buckets are hashed, and the levels
  /// above are rebuilt. Either way the tree equals BucketTree(buckets).
  void update(const BucketMap& buckets,
              const std::vector<std::uint32_t>& changed);

  const Digest& root() const { return tree_.root(); }
  std::size_t leaf_count() const { return tree_.leaf_count(); }
  /// Leaf slot of `prefix`, or nullopt if the bucket is absent.
  std::optional<std::size_t> index_of(std::uint32_t prefix) const;
  /// Index-bound inclusion proof for the leaf at `index`.
  InclusionProof prove(std::size_t index) const;

 private:
  void reshape(const BucketMap& buckets, std::vector<std::uint32_t> changed);

  std::vector<std::uint32_t> prefixes_;  // sorted, parallel to leaves
  chain::MerkleTree tree_;
};

/// The provider's append-only log of epoch records. Append-only is
/// structural here (records are only ever pushed); what clients verify
/// is that the provider's SIGNED checkpoints stay consistent.
class TransparencyLog {
 public:
  /// Appends a record; returns the new tree size.
  std::size_t append(const EpochRecord& record);

  std::size_t size() const { return records_.size(); }
  const Digest& root() const { return tree_.root(); }
  const EpochRecord& record(std::size_t index) const {
    return records_.at(index);
  }

  /// Index-bound inclusion proof for the record at `index` under the
  /// current root.
  InclusionProof prove_record(std::size_t index) const;
  chain::MerkleTree::ConsistencyProof prove_consistency(
      std::size_t old_size) const;

 private:
  std::vector<EpochRecord> records_;
  chain::MerkleTree tree_{std::vector<Bytes>{}};  // grows with records_
};

}  // namespace cbl::tlog
