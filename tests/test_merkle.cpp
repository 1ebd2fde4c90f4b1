// Tests for the Merkle tree and block-header chaining: inclusion proofs
// at every index and size (path-only and index-bound), RFC-6962
// consistency proofs over an exhaustive size sweep, tamper detection,
// header chaining, and light-client receipt verification.
#include <gtest/gtest.h>

#include "chain/blockchain.h"
#include "chain/merkle.h"
#include "common/rng.h"
#include "voting/ceremony.h"

namespace cbl::chain {
namespace {

using cbl::ChaChaRng;

std::vector<Bytes> make_leaves(std::size_t n) {
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(to_bytes("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(Merkle, EmptyTreeHasZeroRoot) {
  MerkleTree tree({});
  EXPECT_EQ(tree.root(), MerkleTree::Digest{});
  EXPECT_EQ(tree.leaf_count(), 0u);
}

TEST(Merkle, SingleLeaf) {
  const auto leaves = make_leaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), MerkleTree::hash_leaf(leaves[0]));
  const auto proof = tree.prove(0);
  EXPECT_TRUE(proof.empty());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[0], proof));
}

class MerkleSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizeSweep, EveryIndexProvesAndTamperFails) {
  const auto leaves = make_leaves(GetParam());
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const auto proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], proof)) << i;
    // Wrong payload fails.
    EXPECT_FALSE(MerkleTree::verify(tree.root(), to_bytes("evil"), proof));
    // Wrong index (proof/leaf mismatch) fails for non-trivial trees.
    if (leaves.size() > 1) {
      EXPECT_FALSE(MerkleTree::verify(tree.root(),
                                      leaves[(i + 1) % leaves.size()], proof))
          << i;
    }
    // Tampered sibling fails.
    if (!proof.empty()) {
      auto bad = proof;
      bad[0].sibling[0] ^= 1;
      EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[i], bad));
    }
  }
  EXPECT_THROW((void)tree.prove(leaves.size()), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u,
                                           17u));

TEST(Merkle, IndexBoundVerifyAcceptsEveryIndex) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 16u, 17u}) {
    const auto leaves = make_leaves(n);
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(MerkleTree::verify(tree.root(), i, n, leaves[i],
                                     tree.prove(i)))
          << n << ":" << i;
    }
  }
}

TEST(Merkle, IndexBoundVerifyRejectsReplayAtOtherIndex) {
  // The unbound overload only checks the path shape, so leaf i's proof
  // could place that payload at any same-shape slot; the index-bound
  // overload derives the directions from (index, leaf_count) and must
  // reject every (proof_i, index_j != i) pairing.
  for (std::size_t n : {2u, 3u, 4u, 7u, 8u, 9u, 16u}) {
    const auto leaves = make_leaves(n);
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      const auto proof = tree.prove(i);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        EXPECT_FALSE(MerkleTree::verify(tree.root(), j, n, leaves[i], proof))
            << n << ":" << i << "->" << j;
      }
      // Out-of-range index is rejected outright. (An inclusion proof
      // does not authenticate the tree size — the signed checkpoint
      // does — but a claimed size too large for the proof's length can
      // never fold down to the root.)
      EXPECT_FALSE(MerkleTree::verify(tree.root(), n, n, leaves[i], proof));
      EXPECT_FALSE(
          MerkleTree::verify(tree.root(), i, 2 * n + 2, leaves[i], proof));
      // A proof that is too long for its slot is rejected, not folded.
      auto padded = proof;
      padded.push_back(MerkleTree::ProofStep{{}, true});
      EXPECT_FALSE(MerkleTree::verify(tree.root(), i, n, leaves[i], padded));
      if (!proof.empty()) {
        auto short_proof = proof;
        short_proof.pop_back();
        EXPECT_FALSE(
            MerkleTree::verify(tree.root(), i, n, leaves[i], short_proof));
      }
    }
  }
}

TEST(Merkle, ConsistencySweepAllPairs) {
  // Exhaustive m <= n sweep: every old size of every tree up to 20
  // leaves proves consistent with the grown tree, covering empty -> n,
  // n -> n, and both power-of-two boundaries (m or n a power of two).
  constexpr std::size_t kMax = 20;
  const auto leaves = make_leaves(kMax);
  std::vector<MerkleTree::Digest> roots(kMax + 1);
  std::vector<MerkleTree> trees;
  for (std::size_t n = 0; n <= kMax; ++n) {
    trees.emplace_back(
        std::vector<Bytes>(leaves.begin(), leaves.begin() + n));
    roots[n] = trees.back().root();
  }
  for (std::size_t n = 0; n <= kMax; ++n) {
    for (std::size_t m = 0; m <= n; ++m) {
      const auto proof = trees[n].prove_consistency(m);
      EXPECT_TRUE(MerkleTree::verify_consistency(roots[m], m, roots[n], n,
                                                 proof))
          << m << "->" << n;
      if (m == 0 || m == n) {
        EXPECT_TRUE(proof.empty()) << m << "->" << n;
      }
      // A different old root (a fork) must not verify.
      if (m >= 1 && m < n) {
        auto forged = roots[m];
        forged[0] ^= 1;
        EXPECT_FALSE(
            MerkleTree::verify_consistency(forged, m, roots[n], n, proof))
            << m << "->" << n;
      }
      // Tampering with any proof node must fail.
      if (!proof.empty()) {
        auto bad = proof;
        bad[bad.size() / 2][0] ^= 1;
        EXPECT_FALSE(
            MerkleTree::verify_consistency(roots[m], m, roots[n], n, bad))
            << m << "->" << n;
      }
    }
    EXPECT_THROW((void)trees[n].prove_consistency(n + 1), std::out_of_range);
  }
}

TEST(Merkle, ConsistencyRejectsMismatchedSizes) {
  const auto leaves = make_leaves(9);
  MerkleTree small(std::vector<Bytes>(leaves.begin(), leaves.begin() + 4));
  MerkleTree big(leaves);
  const auto proof = big.prove_consistency(4);
  // Shrinking logs never verify.
  EXPECT_FALSE(MerkleTree::verify_consistency(big.root(), 9, small.root(), 4,
                                              proof));
  // Equal sizes demand equal roots and an empty proof.
  EXPECT_TRUE(
      MerkleTree::verify_consistency(big.root(), 9, big.root(), 9, {}));
  EXPECT_FALSE(
      MerkleTree::verify_consistency(small.root(), 9, big.root(), 9, {}));
  EXPECT_FALSE(MerkleTree::verify_consistency(big.root(), 9, big.root(), 9,
                                              proof));
  // Claiming the wrong old size with a valid proof fails.
  EXPECT_FALSE(MerkleTree::verify_consistency(small.root(), 5, big.root(), 9,
                                              proof));
}

TEST(Merkle, RootDependsOnOrderAndContent) {
  auto leaves = make_leaves(4);
  const auto root1 = MerkleTree(leaves).root();
  std::swap(leaves[0], leaves[3]);
  EXPECT_NE(MerkleTree(leaves).root(), root1);
  std::swap(leaves[0], leaves[3]);
  leaves[2].push_back(0);
  EXPECT_NE(MerkleTree(leaves).root(), root1);
}

// ------------------------------------------- stored levels vs RFC 6962

/// RFC 6962 section 2.1 computed straight from its definition: the
/// reference the level-stored tree is checked against.
MerkleTree::Digest rfc6962_root(const std::vector<Bytes>& leaves,
                                std::size_t lo, std::size_t hi) {
  if (hi - lo == 1) return MerkleTree::hash_leaf(leaves[lo]);
  std::size_t k = 1;
  while (k * 2 < hi - lo) k *= 2;
  return MerkleTree::hash_node(rfc6962_root(leaves, lo, lo + k),
                               rfc6962_root(leaves, lo + k, hi));
}

/// RFC 6962 section 2.1.1 audit path, leaf-to-root.
void rfc6962_path(const std::vector<Bytes>& leaves, std::size_t index,
                  std::size_t lo, std::size_t hi, MerkleTree::Proof& out) {
  if (hi - lo == 1) return;
  std::size_t k = 1;
  while (k * 2 < hi - lo) k *= 2;
  if (index < lo + k) {
    rfc6962_path(leaves, index, lo, lo + k, out);
    out.push_back({rfc6962_root(leaves, lo + k, hi), true});
  } else {
    rfc6962_path(leaves, index, lo + k, hi, out);
    out.push_back({rfc6962_root(leaves, lo, lo + k), false});
  }
}

bool same_proof(const MerkleTree::Proof& a, const MerkleTree::Proof& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sibling != b[i].sibling ||
        a[i].sibling_on_right != b[i].sibling_on_right) {
      return false;
    }
  }
  return true;
}

/// The kept tree must be indistinguishable from a fresh build over the
/// same leaves: root, every proof, index-bound verification, and the
/// consistency proof from every smaller size.
void expect_matches_fresh(const MerkleTree& kept,
                          const std::vector<Bytes>& leaves,
                          const std::string& where) {
  const MerkleTree fresh(leaves);
  ASSERT_EQ(kept.leaf_count(), leaves.size()) << where;
  ASSERT_EQ(kept.root(), fresh.root()) << where;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const auto proof = kept.prove(i);
    ASSERT_TRUE(same_proof(proof, fresh.prove(i))) << where << " leaf " << i;
    ASSERT_TRUE(MerkleTree::verify(kept.root(), i, leaves.size(), leaves[i],
                                   proof))
        << where << " leaf " << i;
  }
  for (std::size_t m = 1; m < leaves.size(); m += 1 + leaves.size() / 8) {
    ASSERT_EQ(kept.prove_consistency(m), fresh.prove_consistency(m))
        << where << " old size " << m;
  }
}

TEST(MerkleLevels, FreshBuildMatchesRfc6962Definition) {
  for (std::size_t n = 1; n <= 70; ++n) {
    const auto leaves = make_leaves(n);
    const MerkleTree tree(leaves);
    ASSERT_EQ(tree.root(), rfc6962_root(leaves, 0, n)) << n;
    for (std::size_t i = 0; i < n; ++i) {
      MerkleTree::Proof want;
      rfc6962_path(leaves, i, 0, n, want);
      ASSERT_TRUE(same_proof(tree.prove(i), want)) << n << ":" << i;
    }
  }
}

TEST(MerkleLevels, UpdatesAndAppendsMatchFreshBuildAtEverySize) {
  // Every size 1..300 (so every 2^k - 1, 2^k and 2^k + 1 up to 257), each
  // driven through a seeded mix of leaf-update batches and appends; the
  // reference model is a fresh build over the same leaf vector.
  ChaChaRng rng = ChaChaRng::from_string_seed("merkle-levels");
  const auto draw = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_u64() % bound);
  };
  for (std::size_t n = 1; n <= 300; ++n) {
    auto leaves = make_leaves(n);
    MerkleTree kept(leaves);
    ASSERT_EQ(kept.root(), rfc6962_root(leaves, 0, n)) << n;
    for (int step = 0; step < 3; ++step) {
      const std::string where =
          "size " + std::to_string(leaves.size()) + " step " +
          std::to_string(step);
      if (draw(3) == 0) {
        leaves.push_back(to_bytes("appended-" + std::to_string(n) + "-" +
                                  std::to_string(step)));
        kept.append(leaves.back());
      } else {
        std::vector<MerkleTree::LeafUpdate> updates;
        const std::size_t count = 1 + draw(std::min<std::size_t>(8, n));
        for (std::size_t u = 0; u < count; ++u) {
          const std::size_t index = draw(leaves.size());
          leaves[index] = to_bytes("updated-" + std::to_string(draw(1000)));
          updates.push_back({index, MerkleTree::hash_leaf(leaves[index])});
        }
        kept.update(updates);
      }
      expect_matches_fresh(kept, leaves, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The last leaf and the promoted right edge are where shapes differ.
    leaves.back() = to_bytes("last-" + std::to_string(n));
    kept.update({{leaves.size() - 1, MerkleTree::hash_leaf(leaves.back())}});
    expect_matches_fresh(kept, leaves, "last leaf at " + std::to_string(n));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MerkleLevels, AppendFromEmptyMatchesFreshBuild) {
  MerkleTree kept({});
  std::vector<Bytes> leaves;
  for (std::size_t n = 1; n <= 70; ++n) {
    leaves.push_back(to_bytes("grown-" + std::to_string(n)));
    kept.append(leaves.back());
    expect_matches_fresh(kept, leaves, "grown to " + std::to_string(n));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MerkleLevels, LeafHashInterfaceMatchesPayloadInterface) {
  // from_leaf_hashes and verify_leaf_hash over hash_leaf outputs are the
  // payload constructor and verify.
  for (std::size_t n = 0; n <= 40; ++n) {
    auto leaves = make_leaves(n);
    std::vector<MerkleTree::Digest> hashes;
    for (const auto& leaf : leaves) hashes.push_back(MerkleTree::hash_leaf(leaf));
    MerkleTree kept = MerkleTree::from_leaf_hashes(hashes);
    ASSERT_EQ(kept.leaf_hashes(), hashes) << n;
    expect_matches_fresh(kept, leaves, "from hashes at " + std::to_string(n));
    if (::testing::Test::HasFatalFailure()) return;
    if (n == 0) continue;
    const std::size_t index = n / 2;
    leaves[index] = to_bytes("rehashed-" + std::to_string(n));
    kept.update({{index, MerkleTree::hash_leaf(leaves[index])}});
    expect_matches_fresh(kept, leaves, "update at " + std::to_string(n));
    if (::testing::Test::HasFatalFailure()) return;
    for (std::size_t i = 0; i < n; ++i) {
      const auto proof = kept.prove(i);
      EXPECT_TRUE(MerkleTree::verify_leaf_hash(
          kept.root(), i, n, MerkleTree::hash_leaf(leaves[i]), proof));
      EXPECT_FALSE(MerkleTree::verify_leaf_hash(
          kept.root(), i, n, MerkleTree::hash_leaf(to_bytes("evil")), proof));
    }
  }
}

TEST(MerkleLevels, LeafHasherStreamsHashLeaf) {
  const Bytes payload = to_bytes("a leaf payload fed in three pieces");
  auto h = MerkleTree::leaf_hasher();
  h.update(ByteView(payload.data(), 5))
      .update(ByteView(payload.data() + 5, 20))
      .update(ByteView(payload.data() + 25, payload.size() - 25));
  EXPECT_EQ(h.finalize(), MerkleTree::hash_leaf(payload));
}

TEST(MerkleLevels, OutOfRangeUpdateThrowsAndLeavesTreeUnchanged) {
  const auto leaves = make_leaves(5);
  MerkleTree tree(leaves);
  const auto root = tree.root();
  EXPECT_THROW(tree.update({{1, MerkleTree::hash_leaf(to_bytes("x"))},
                            {5, MerkleTree::hash_leaf(to_bytes("y"))}}),
               std::out_of_range);
  EXPECT_EQ(tree.root(), root);
  expect_matches_fresh(tree, leaves, "after rejected update");
}

TEST(Blocks, HeadersChain) {
  Blockchain chain;
  const auto alice = chain.ledger().create_account("alice");
  chain.execute(alice, "m1", 10, [] {});
  chain.seal_block();
  chain.execute(alice, "m2", 10, [] {});
  chain.execute(alice, "m3", 10, [] {});
  chain.seal_block();

  const auto& headers = chain.headers();
  ASSERT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers[0].height, 0u);
  EXPECT_EQ(headers[0].tx_count, 1u);
  EXPECT_EQ(headers[1].tx_count, 2u);
  EXPECT_EQ(headers[1].prev_hash, headers[0].hash());
  EXPECT_EQ(headers[0].prev_hash, hash::Sha256::Digest{});  // genesis
}

TEST(Blocks, ReceiptInclusionProofs) {
  Blockchain chain;
  const auto alice = chain.ledger().create_account("alice");
  for (int i = 0; i < 5; ++i) {
    chain.execute(alice, "method-" + std::to_string(i),
                  static_cast<std::size_t>(10 * i), [] {});
  }
  chain.seal_block();

  for (std::size_t i = 0; i < 5; ++i) {
    const auto proof = chain.receipt_inclusion_proof(0, i);
    EXPECT_TRUE(Blockchain::verify_receipt_inclusion(
        chain.headers()[0], chain.receipts()[i], proof))
        << i;
  }
  // A receipt does not verify under the wrong proof slot.
  const auto proof0 = chain.receipt_inclusion_proof(0, 0);
  EXPECT_FALSE(Blockchain::verify_receipt_inclusion(
      chain.headers()[0], chain.receipts()[3], proof0));
  // Unsealed block throws.
  chain.execute(alice, "late", 1, [] {});
  EXPECT_THROW((void)chain.receipt_inclusion_proof(1, 0), ChainError);
}

TEST(Blocks, TamperedReceiptFailsInclusion) {
  Blockchain chain;
  const auto alice = chain.ledger().create_account("alice");
  chain.execute(alice, "transfer", 64, [] {});
  chain.seal_block();
  const auto proof = chain.receipt_inclusion_proof(0, 0);

  TxReceipt forged = chain.receipts()[0];
  forged.gas_used += 1;  // a light client must notice a doctored receipt
  EXPECT_FALSE(Blockchain::verify_receipt_inclusion(chain.headers()[0],
                                                    forged, proof));
  forged = chain.receipts()[0];
  forged.method = "mint";
  EXPECT_FALSE(Blockchain::verify_receipt_inclusion(chain.headers()[0],
                                                    forged, proof));
}

TEST(Blocks, CeremonyHistoryIsLightClientVerifiable) {
  // Seal a ceremony's transactions and verify a VoteCommit receipt as a
  // light client would.
  auto rng = ChaChaRng::from_string_seed("merkle-ceremony");
  Blockchain chain;
  voting::EvaluationConfig cfg;
  cfg.thresh = cfg.committee_size = 3;
  cfg.deposit = 10;
  cfg.provider_deposit = 10;
  voting::Ceremony ceremony(chain, cfg, {1, 1, 0}, rng);
  ceremony.run();
  chain.seal_block();

  // Find a VoteCommit receipt and prove it.
  for (std::size_t i = 0; i < chain.receipts().size(); ++i) {
    if (chain.receipts()[i].method == "VoteCommit") {
      const auto proof = chain.receipt_inclusion_proof(0, i);
      EXPECT_TRUE(Blockchain::verify_receipt_inclusion(
          chain.headers()[0], chain.receipts()[i], proof));
      return;
    }
  }
  FAIL() << "no VoteCommit receipt found";
}

}  // namespace
}  // namespace cbl::chain
