// wire:parser
#include "tlog/proof.h"

#include "ec/codec.h"

namespace cbl::tlog {

namespace {

void write_inclusion(ec::WireWriter& w, const InclusionProof& proof) {
  w.u64(proof.index).u64(proof.leaf_count);
  w.u32(static_cast<std::uint32_t>(proof.steps.size()));
  for (const auto& step : proof.steps) {
    w.raw(ByteView(step.sibling.data(), step.sibling.size()));
    w.u8(step.sibling_on_right ? 1 : 0);
  }
}

InclusionProof read_inclusion(ec::WireReader& r) {
  InclusionProof proof;
  proof.index = r.u64();
  proof.leaf_count = r.u64();
  const std::uint32_t n_steps = r.u32();
  // Depth cap plus a remaining-bytes bound so a hostile count cannot
  // drive a large allocation before the reader runs dry.
  if (n_steps > kMaxProofSteps ||
      static_cast<std::size_t>(n_steps) * 33 > r.remaining()) {
    r.fail();
    return proof;
  }
  proof.steps.reserve(n_steps);
  for (std::uint32_t i = 0; i < n_steps; ++i) {
    chain::MerkleTree::ProofStep step;
    r.fill(std::span(step.sibling));
    const std::uint8_t dir = r.u8();
    if (dir > 1) r.fail();
    step.sibling_on_right = dir == 1;
    proof.steps.push_back(step);
  }
  return proof;
}

}  // namespace

Bytes encode_inclusion_proof(const InclusionProof& proof) {
  ec::WireWriter w;
  write_inclusion(w, proof);
  return w.take();
}

std::optional<InclusionProof> parse_inclusion_proof(ByteView data) {
  ec::WireReader r(data);
  InclusionProof proof = read_inclusion(r);
  if (!r.finish()) return std::nullopt;
  return proof;
}

Bytes encode_consistency_proof(const ConsistencyProofMsg& proof) {
  ec::WireWriter w;
  w.u64(proof.old_size).u64(proof.new_size);
  w.u32(static_cast<std::uint32_t>(proof.nodes.size()));
  for (const auto& node : proof.nodes) {
    w.raw(ByteView(node.data(), node.size()));
  }
  return w.take();
}

std::optional<ConsistencyProofMsg> parse_consistency_proof(ByteView data) {
  ec::WireReader r(data);
  ConsistencyProofMsg proof;
  proof.old_size = r.u64();
  proof.new_size = r.u64();
  const std::uint32_t n_nodes = r.u32();
  if (n_nodes > kMaxProofSteps ||
      static_cast<std::size_t>(n_nodes) * 32 > r.remaining()) {
    r.fail();
  } else {
    proof.nodes.reserve(n_nodes);
    for (std::uint32_t i = 0; i < n_nodes; ++i) {
      Digest node{};
      r.fill(std::span(node));
      proof.nodes.push_back(node);
    }
  }
  if (!r.finish()) return std::nullopt;
  return proof;
}

Bytes encode_audit_path(const AuditPath& path) {
  ec::WireWriter w;
  w.u64(path.epoch);
  w.raw(ByteView(path.bucket_root.data(), path.bucket_root.size()));
  w.raw(ByteView(path.delta_digest.data(), path.delta_digest.size()));
  write_inclusion(w, path.bucket_proof);
  write_inclusion(w, path.log_proof);
  return w.take();
}

std::optional<AuditPath> parse_audit_path(ByteView data) {
  ec::WireReader r(data);
  AuditPath path;
  path.epoch = r.u64();
  r.fill(std::span(path.bucket_root));
  r.fill(std::span(path.delta_digest));
  path.bucket_proof = read_inclusion(r);
  path.log_proof = read_inclusion(r);
  if (!r.finish()) return std::nullopt;
  return path;
}

Bytes encode_sync_request(const SyncRequest& request) {
  ec::WireWriter w;
  w.u64(request.known_size).u64(request.mirror_epoch);
  return w.take();
}

std::optional<SyncRequest> parse_sync_request(ByteView data) {
  ec::WireReader r(data);
  SyncRequest request;
  request.known_size = r.u64();
  request.mirror_epoch = r.u64();
  if (!r.finish()) return std::nullopt;
  return request;
}

Bytes encode_sync_bundle(const SyncBundle& bundle) {
  ec::WireWriter w;
  w.var_bytes(bundle.checkpoint).var_bytes(bundle.consistency);
  w.var_bytes(bundle.snapshot);
  w.u32(static_cast<std::uint32_t>(bundle.deltas.size()));
  for (const Bytes& delta : bundle.deltas) w.var_bytes(delta);
  w.var_bytes(bundle.audit_path);
  return w.take();
}

std::optional<SyncBundle> parse_sync_bundle(ByteView data) {
  ec::WireReader r(data);
  SyncBundle bundle;
  bundle.checkpoint = r.raw(r.u32());
  bundle.consistency = r.raw(r.u32());
  bundle.snapshot = r.raw(r.u32());
  const std::uint32_t n_deltas = r.u32();
  // Each delta carries at least its 4-byte length.
  if (static_cast<std::size_t>(n_deltas) * 4 > r.remaining()) r.fail();
  for (std::uint32_t i = 0; i < n_deltas && r.ok(); ++i) {
    bundle.deltas.push_back(r.raw(r.u32()));
  }
  bundle.audit_path = r.raw(r.u32());
  if (!r.finish()) return std::nullopt;
  return bundle;
}

}  // namespace cbl::tlog
