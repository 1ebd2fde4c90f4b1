// Binary Merkle tree over SHA-256 with domain-separated leaf/node
// hashing (second-preimage hardened) and RFC-6962 tree shape: an
// unbalanced tree splits at the largest power of two below the leaf
// count, so every prefix of the leaf sequence is a subtree and
// append-only growth is provable with succinct consistency proofs.
//
// The RFC-6962 tree is exactly the tree built level by level where an
// odd last node is promoted unchanged to the next level, so that is how
// it is stored: every level's node hashes. A proof then reads stored
// siblings, and a leaf update or an append rehashes one path.
//
// Two consumers ride on this one structure:
//   * the blockchain commits each sealed block to the Merkle root of its
//     transaction receipts, so a light client can verify that a given
//     transaction executed without replaying the chain;
//   * the transparency log (src/tlog) commits each epoch's bucket set,
//     so a blocklist client can verify inclusion of its prefix buckets
//     and append-only consistency between epochs.
#pragma once

#include <cstdint>
#include <vector>

#include "hash/sha256.h"

namespace cbl::chain {

class MerkleTree {
 public:
  using Digest = hash::Sha256::Digest;

  struct ProofStep {
    Digest sibling;
    bool sibling_on_right;
  };
  using Proof = std::vector<ProofStep>;
  /// RFC-6962 consistency proof: bare subtree hashes, leaf-to-root order.
  using ConsistencyProof = std::vector<Digest>;

  /// One leaf replacement for update().
  struct LeafUpdate {
    std::size_t index;
    Bytes payload;
  };

  /// Builds the tree over the given leaf payloads (hashed internally).
  /// An empty leaf set has the all-zero root.
  explicit MerkleTree(const std::vector<Bytes>& leaves);

  const Digest& root() const { return root_; }
  std::size_t leaf_count() const { return levels_[0].size(); }

  /// Replaces existing leaves' payloads and rehashes their paths, each
  /// shared ancestor once. Indices must be in range; throws
  /// std::out_of_range otherwise (the tree is then unchanged).
  void update(const std::vector<LeafUpdate>& updates);

  /// Appends one leaf, rehashing only the right edge of the tree.
  void append(ByteView payload);

  /// Inclusion proof for leaf `index`; throws std::out_of_range.
  Proof prove(std::size_t index) const;

  /// Verifies that `leaf_payload` is a leaf under `root` along the path
  /// described by the proof's direction flags. Cannot pin WHICH leaf
  /// slot the payload occupies — use the index-bound overload when the
  /// position matters (e.g. the transparency log).
  static bool verify(const Digest& root, ByteView leaf_payload,
                     const Proof& proof);

  /// Index-bound verification: the fold directions are derived from
  /// (index, leaf_count), not trusted from the proof, so a proof for
  /// leaf i can never be replayed to place the payload at a same-path
  /// index j, and proofs of the wrong length are rejected.
  static bool verify(const Digest& root, std::size_t index,
                     std::size_t leaf_count, ByteView leaf_payload,
                     const Proof& proof);

  /// RFC-6962 consistency proof that this tree is an append-only
  /// extension of its own first `old_size` leaves; throws
  /// std::out_of_range when old_size exceeds the leaf count.
  ConsistencyProof prove_consistency(std::size_t old_size) const;

  /// Verifies that the tree of `new_size` leaves under `new_root` is an
  /// append-only extension of the tree of `old_size` leaves under
  /// `old_root`. The empty tree (old_size 0) is consistent with
  /// anything; equal sizes require equal roots and an empty proof.
  static bool verify_consistency(const Digest& old_root,
                                 std::size_t old_size,
                                 const Digest& new_root,
                                 std::size_t new_size,
                                 const ConsistencyProof& proof);

  static Digest hash_leaf(ByteView payload);
  static Digest hash_node(const Digest& left, const Digest& right);

 private:
  /// The stored node covering leaves [lo, hi); only valid for ranges
  /// that are nodes of the tree (what the consistency recursion visits).
  const Digest& node(std::size_t lo, std::size_t hi) const;
  /// Recomputes node `index` of `level` from its children in level - 1.
  void rehash(std::size_t level, std::size_t index);
  void subtree_consistency(std::size_t m, std::size_t lo, std::size_t hi,
                           bool complete, ConsistencyProof& out) const;

  /// levels_[0] holds the leaf hashes; levels_[l + 1][i] hashes the pair
  /// (2i, 2i + 1) of levels_[l], or promotes 2i when it is the odd last
  /// node. The top level holds the root (one node; none when empty).
  std::vector<std::vector<Digest>> levels_;
  Digest root_{};
};

}  // namespace cbl::chain
