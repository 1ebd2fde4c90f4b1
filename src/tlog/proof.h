// Wire forms of what the transparency endpoint serves: index-bound
// inclusion proofs, append-only consistency proofs, the composite
// per-prefix audit path (bucket leaf -> bucket root -> epoch record ->
// log root), and the sync request and bundle that carry a wallet's whole
// sync in one exchange. All decoders treat input as hostile.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/merkle.h"
#include "oprf/protocol.h"
#include "tlog/checkpoint.h"

namespace cbl::tlog {

/// Proof path depth cap: a 2^64-leaf tree needs 64 steps, anything
/// longer is hostile.
inline constexpr std::size_t kMaxProofSteps = 64;

/// An inclusion proof pinned to a slot: verified with the index-bound
/// MerkleTree::verify overload, so it cannot be replayed for another
/// leaf position.
struct InclusionProof {
  std::uint64_t index = 0;
  std::uint64_t leaf_count = 0;
  chain::MerkleTree::Proof steps;
};

Bytes encode_inclusion_proof(const InclusionProof& proof);
// wire:untrusted fuzz=fuzz_tlog_checkpoint
[[nodiscard]] std::optional<InclusionProof> parse_inclusion_proof(
    ByteView data);

/// Append-only consistency between two checkpointed log sizes.
struct ConsistencyProofMsg {
  std::uint64_t old_size = 0;
  std::uint64_t new_size = 0;
  chain::MerkleTree::ConsistencyProof nodes;
};

Bytes encode_consistency_proof(const ConsistencyProofMsg& proof);
// wire:untrusted fuzz=fuzz_tlog_checkpoint
[[nodiscard]] std::optional<ConsistencyProofMsg> parse_consistency_proof(
    ByteView data);

/// The composite audit answer for one prefix at the latest epoch: the
/// epoch record (what the log leaf commits to), the bucket-tree
/// inclusion proof for the prefix's bucket leaf under `bucket_root`,
/// and the log inclusion proof for the epoch record under the
/// checkpointed log root. The client reconstructs both leaf payloads
/// itself — from its own mirrored bucket state and from the record
/// fields — so the proofs bind the provider to the client's view.
struct AuditPath {
  std::uint64_t epoch = 0;
  Digest bucket_root{};
  Digest delta_digest{};
  InclusionProof bucket_proof;  // prefix bucket leaf under bucket_root
  InclusionProof log_proof;     // epoch record leaf under the log root
};

Bytes encode_audit_path(const AuditPath& path);
// wire:untrusted fuzz=fuzz_tlog_checkpoint
[[nodiscard]] std::optional<AuditPath> parse_audit_path(ByteView data);

/// A wallet's sync request: the tree size of the last checkpoint it
/// accepted (0 before the first) and its mirror's epoch
/// (oprf::kNoEpoch when it has no mirror).
struct SyncRequest {
  std::uint64_t known_size = 0;
  std::uint64_t mirror_epoch = oprf::kNoEpoch;
};

Bytes encode_sync_request(const SyncRequest& request);
// wire:untrusted fuzz=fuzz_tlog_checkpoint
[[nodiscard]] std::optional<SyncRequest> parse_sync_request(ByteView data);

/// The provider's answer to one SyncRequest, read from one publication.
/// Each part keeps its own wire encoding, so the client parses and audits
/// the parts one by one. An absent part is empty; no encoding is.
struct SyncBundle {
  Bytes checkpoint;           // Checkpoint::to_bytes
  Bytes consistency;          // from known_size, when the log grew
  Bytes snapshot;             // encode_bucket_map, without a mirror
  std::vector<Bytes> deltas;  // EpochDelta::to_bytes, hop by hop
  Bytes audit_path;           // for the lowest published prefix
};

/// The parts in field order, each as u32 length || bytes, the deltas
/// after their u32 count.
Bytes encode_sync_bundle(const SyncBundle& bundle);
// wire:untrusted fuzz=fuzz_tlog_checkpoint
[[nodiscard]] std::optional<SyncBundle> parse_sync_bundle(ByteView data);

}  // namespace cbl::tlog
