// Decode surface: tlog/checkpoint.h + tlog/proof.h — the signed
// checkpoint codec, the three proof-message parsers, and the sync
// request and bundle framing. Accepted messages must be canonical
// (re-encode == input), and every parsed proof must be safe to hand to
// the Merkle verifiers (total, no crash) no matter how hostile its
// index/size/step fields are.
#include <algorithm>

#include "fuzz/harness.h"
#include "tlog/checkpoint.h"
#include "tlog/delta.h"
#include "tlog/proof.h"

using namespace cbl;

namespace {

/// A small fixed tree to verify hostile proofs against: verification
/// must return false (or true only for a legitimately matching proof),
/// never crash or over-read.
const chain::MerkleTree& fixed_tree() {
  static const chain::MerkleTree tree([] {
    std::vector<Bytes> leaves;
    for (std::uint8_t i = 0; i < 5; ++i) leaves.push_back(Bytes{i});
    return leaves;
  }());
  return tree;
}

}  // namespace

CBL_FUZZ_TARGET(cbl_fuzz_tlog_checkpoint) {
  const ByteView input(data, size);

  if (const auto cp = tlog::Checkpoint::from_bytes(input)) {
    const Bytes re = cp->to_bytes();
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
  }

  const auto& tree = fixed_tree();
  const Bytes leaf{2};
  if (const auto proof = tlog::parse_inclusion_proof(input)) {
    const Bytes re = tlog::encode_inclusion_proof(*proof);
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
    (void)chain::MerkleTree::verify(
        tree.root(), static_cast<std::size_t>(proof->index),
        static_cast<std::size_t>(proof->leaf_count), leaf, proof->steps);
    (void)chain::MerkleTree::verify(tree.root(), leaf, proof->steps);
  }
  if (const auto proof = tlog::parse_consistency_proof(input)) {
    const Bytes re = tlog::encode_consistency_proof(*proof);
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
    (void)chain::MerkleTree::verify_consistency(
        tree.root(), static_cast<std::size_t>(proof->old_size), tree.root(),
        static_cast<std::size_t>(proof->new_size), proof->nodes);
  }
  if (const auto path = tlog::parse_audit_path(input)) {
    const Bytes re = tlog::encode_audit_path(*path);
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
  }
  if (const auto request = tlog::parse_sync_request(input)) {
    const Bytes re = tlog::encode_sync_request(*request);
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
  }
  if (const auto bundle = tlog::parse_sync_bundle(input)) {
    const Bytes re = tlog::encode_sync_bundle(*bundle);
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
    // Each part goes through its own parser, as verified_sync reads it.
    (void)tlog::Checkpoint::from_bytes(bundle->checkpoint);
    (void)tlog::parse_consistency_proof(bundle->consistency);
    (void)tlog::parse_bucket_map(bundle->snapshot);
    for (const Bytes& delta : bundle->deltas) {
      (void)tlog::EpochDelta::from_bytes(delta);
    }
    (void)tlog::parse_audit_path(bundle->audit_path);
  }
  return 0;
}
