#include "chain/merkle.h"

#include <algorithm>
#include <stdexcept>

namespace cbl::chain {

namespace {

/// Largest power of two strictly below n (RFC 6962's split point);
/// requires n >= 2.
std::size_t split_point(std::size_t n) {
  std::size_t k = 1;
  while (k * 2 < n) k *= 2;
  return k;
}

}  // namespace

MerkleTree::Digest MerkleTree::hash_leaf(ByteView payload) {
  hash::Sha256 h;
  h.update("cbl/merkle/leaf").update(payload);
  return h.finalize();
}

MerkleTree::Digest MerkleTree::hash_node(const Digest& left,
                                         const Digest& right) {
  hash::Sha256 h;
  h.update("cbl/merkle/node")
      .update(ByteView(left.data(), left.size()))
      .update(ByteView(right.data(), right.size()));
  return h.finalize();
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaves) : levels_(1) {
  levels_[0].reserve(leaves.size());
  for (const auto& leaf : leaves) levels_[0].push_back(hash_leaf(leaf));
  while (levels_.back().size() > 1) {
    levels_.emplace_back((levels_.back().size() + 1) / 2);
    const std::size_t level = levels_.size() - 1;
    for (std::size_t i = 0; i < levels_[level].size(); ++i) rehash(level, i);
  }
  if (!levels_[0].empty()) root_ = levels_.back()[0];
}

void MerkleTree::rehash(std::size_t level, std::size_t index) {
  const std::vector<Digest>& below = levels_[level - 1];
  const std::size_t left = 2 * index;
  levels_[level][index] = left + 1 < below.size()
                              ? hash_node(below[left], below[left + 1])
                              : below[left];  // odd last node: promoted
}

void MerkleTree::update(const std::vector<LeafUpdate>& updates) {
  std::vector<std::size_t> dirty;
  dirty.reserve(updates.size());
  for (const auto& u : updates) {
    if (u.index >= leaf_count()) {
      throw std::out_of_range("MerkleTree::update: index out of range");
    }
    dirty.push_back(u.index);
  }
  for (const auto& u : updates) levels_[0][u.index] = hash_leaf(u.payload);
  // Parents of a sorted index set stay sorted, so one sort serves every
  // level; dedup makes each shared ancestor cost one hash.
  std::sort(dirty.begin(), dirty.end());
  for (std::size_t level = 1; level < levels_.size(); ++level) {
    for (auto& i : dirty) i >>= 1;
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (const std::size_t i : dirty) rehash(level, i);
  }
  if (!levels_[0].empty()) root_ = levels_.back()[0];
}

void MerkleTree::append(ByteView payload) {
  levels_[0].push_back(hash_leaf(payload));
  for (std::size_t level = 0; levels_[level].size() > 1; ++level) {
    const std::size_t parent = (levels_[level].size() - 1) / 2;
    if (level + 1 == levels_.size()) levels_.emplace_back();
    if (levels_[level + 1].size() == parent) levels_[level + 1].emplace_back();
    rehash(level + 1, parent);
  }
  root_ = levels_.back()[0];
}

const MerkleTree::Digest& MerkleTree::node(std::size_t lo,
                                           std::size_t hi) const {
  std::size_t level = 0;
  while ((std::size_t{1} << level) < hi - lo) ++level;
  return levels_[level][lo >> level];
}

MerkleTree::Proof MerkleTree::prove(std::size_t index) const {
  if (index >= leaf_count()) {
    throw std::out_of_range("MerkleTree::prove: index out of range");
  }
  Proof proof;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    // A promoted node has no sibling at this level: no proof step.
    const std::size_t sibling = index ^ 1;
    if (sibling < levels_[level].size()) {
      proof.push_back(ProofStep{levels_[level][sibling], (index & 1) == 0});
    }
    index >>= 1;
  }
  return proof;
}

bool MerkleTree::verify(const Digest& root, ByteView leaf_payload,
                        const Proof& proof) {
  Digest acc = hash_leaf(leaf_payload);
  for (const auto& step : proof) {
    acc = step.sibling_on_right ? hash_node(acc, step.sibling)
                                : hash_node(step.sibling, acc);
  }
  return acc == root;
}

bool MerkleTree::verify(const Digest& root, std::size_t index,
                        std::size_t leaf_count, ByteView leaf_payload,
                        const Proof& proof) {
  if (leaf_count == 0 || index >= leaf_count) return false;
  // RFC 6962-bis inclusion check: walk the index/size pair up the tree,
  // deriving at each level whether the path node is a left or right
  // child. The proof's own flags must agree — a disagreement means the
  // proof was generated for a different slot.
  std::size_t fn = index;
  std::size_t sn = leaf_count - 1;
  Digest acc = hash_leaf(leaf_payload);
  for (const auto& step : proof) {
    if (sn == 0) return false;  // proof longer than the actual path
    const bool sibling_left = (fn & 1) != 0 || fn == sn;
    if (step.sibling_on_right == sibling_left) return false;
    if (sibling_left) {
      acc = hash_node(step.sibling, acc);
      if ((fn & 1) == 0) {
        // Right edge of the tree: the path skips the levels where this
        // node has no sibling.
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      acc = hash_node(acc, step.sibling);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && acc == root;
}

MerkleTree::ConsistencyProof MerkleTree::prove_consistency(
    std::size_t old_size) const {
  if (old_size > leaf_count()) {
    throw std::out_of_range(
        "MerkleTree::prove_consistency: old_size exceeds leaf count");
  }
  ConsistencyProof proof;
  if (old_size == 0 || old_size == leaf_count()) return proof;  // trivial
  subtree_consistency(old_size, 0, leaf_count(), true, proof);
  return proof;
}

void MerkleTree::subtree_consistency(std::size_t m, std::size_t lo,
                                     std::size_t hi, bool complete,
                                     ConsistencyProof& out) const {
  const std::size_t n = hi - lo;
  if (m == n) {
    // The old tree is exactly this subtree; its root is implied when the
    // verifier already holds it (complete), a proof node otherwise.
    if (!complete) out.push_back(node(lo, hi));
    return;
  }
  const std::size_t k = split_point(n);
  if (m <= k) {
    subtree_consistency(m, lo, lo + k, complete, out);
    out.push_back(node(lo + k, hi));
  } else {
    subtree_consistency(m - k, lo + k, hi, false, out);
    out.push_back(node(lo, lo + k));
  }
}

bool MerkleTree::verify_consistency(const Digest& old_root,
                                    std::size_t old_size,
                                    const Digest& new_root,
                                    std::size_t new_size,
                                    const ConsistencyProof& proof) {
  if (old_size > new_size) return false;
  if (old_size == new_size) return proof.empty() && old_root == new_root;
  if (old_size == 0) return proof.empty();  // empty tree extends to anything
  // RFC 6962 consistency check: reconstruct both the old root (fr) and
  // the new root (sr) from the proof nodes in one walk.
  std::size_t fn = old_size - 1;
  std::size_t sn = new_size - 1;
  while ((fn & 1) != 0) {
    fn >>= 1;
    sn >>= 1;
  }
  std::size_t next = 0;
  Digest fr;
  Digest sr;
  if (fn != 0) {
    if (proof.empty()) return false;
    fr = sr = proof[0];
    next = 1;
  } else {
    // old_size is a power of two: the old root is itself a node of the
    // new tree, so it seeds the fold directly.
    fr = sr = old_root;
  }
  for (; next < proof.size(); ++next) {
    const Digest& node = proof[next];
    if (sn == 0) return false;
    if ((fn & 1) != 0 || fn == sn) {
      fr = hash_node(node, fr);
      sr = hash_node(node, sr);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      sr = hash_node(sr, node);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && fr == old_root && sr == new_root;
}

}  // namespace cbl::chain
