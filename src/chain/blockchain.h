// The simulated blockchain of the threat model (Section III-B): trusted
// for integrity and availability, not confidentiality — every payload and
// event is public. Contract methods execute as metered transactions:
// gas = intrinsic + storage(payload bytes) + compute(measured CPU time at
// the eWASM 1 gas = 0.1 us rate), the exact estimation pipeline the
// paper's Fig. 9 / Table II costs come from.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chain/gas.h"
#include "chain/ledger.h"
#include "chain/merkle.h"
#include "chain/shielded.h"
#include "commit/crs.h"
#include "common/bytes.h"
#include "hash/sha256.h"

namespace cbl::obs {
class Counter;
class Histogram;
}  // namespace cbl::obs

namespace cbl::chain {

struct TxReceipt {
  std::uint64_t block = 0;
  std::string method;
  AccountId payer = 0;
  std::size_t payload_bytes = 0;
  std::uint64_t storage_gas = 0;
  std::uint64_t compute_gas = 0;
  std::uint64_t gas_used = 0;  // intrinsic + storage + compute
  double cpu_micros = 0.0;
  double usd_cost = 0.0;
};

struct Event {
  std::uint64_t block;
  std::string topic;
  std::string data;
};

/// Sealed-block commitment: chains to the previous header and commits to
/// the Merkle root of the block's transaction receipts.
struct BlockHeader {
  std::uint64_t height = 0;
  hash::Sha256::Digest prev_hash{};
  MerkleTree::Digest receipt_root{};
  std::size_t tx_count = 0;

  hash::Sha256::Digest hash() const;
};

class Blockchain {
 public:
  explicit Blockchain(GasSchedule schedule = {},
                      const commit::Crs& crs = commit::Crs::default_crs());

  Ledger& ledger() { return ledger_; }
  const Ledger& ledger() const { return ledger_; }
  ShieldedPool& shielded_pool() { return pool_; }
  const GasSchedule& schedule() const { return schedule_; }
  const commit::Crs& crs() const { return crs_; }

  /// Executes `fn` as a transaction paid by `payer` whose on-chain
  /// payload occupies `payload_bytes`. CPU time of `fn` is measured and
  /// converted to gas. If `fn` throws, no receipt is recorded (revert);
  /// contracts validate before mutating, so partial state is not an
  /// issue by construction.
  TxReceipt execute(AccountId payer, std::string method,
                    std::size_t payload_bytes,
                    const std::function<void()>& fn);

  /// "broadcast" in Fig. 4: appends a public event.
  void emit_event(std::string topic, std::string data = {});
  const std::vector<Event>& events() const { return events_; }

  /// Seals the open block: commits its receipts under a Merkle root,
  /// chains the header, and starts a new block.
  void seal_block();
  std::uint64_t height() const { return height_; }
  const std::vector<BlockHeader>& headers() const { return headers_; }

  /// Canonical leaf bytes a receipt contributes to its block's tree.
  static Bytes receipt_leaf(const TxReceipt& receipt);

  /// Inclusion proof for the i-th receipt of a SEALED block; throws on
  /// out-of-range or unsealed blocks.
  MerkleTree::Proof receipt_inclusion_proof(std::uint64_t block,
                                            std::size_t index_in_block) const;

  /// Light-client check: does `receipt` sit at `index_in_block` of the
  /// sealed block committed by `header`?
  static bool verify_receipt_inclusion(const BlockHeader& header,
                                       const TxReceipt& receipt,
                                       const MerkleTree::Proof& proof);

  const std::vector<TxReceipt>& receipts() const { return receipts_; }
  std::uint64_t total_gas() const;
  std::uint64_t gas_paid_by(AccountId payer) const;
  double usd_paid_by(AccountId payer) const;
  std::size_t bytes_stored_by(AccountId payer) const;

  /// Public randomness beacon for the VRF challenge nu: a hash over the
  /// chain state so far. Every observer derives the same value; no single
  /// party chooses it.
  Bytes randomness_beacon() const;

 private:
  GasSchedule schedule_;
  const commit::Crs& crs_;
  Ledger ledger_;
  ShieldedPool pool_;
  std::vector<Bytes> open_block_leaves(std::uint64_t block) const;

  /// cbl_chain_tx_total and cbl_chain_gas_per_tx for one method,
  /// resolved on its first transaction.
  struct MethodMetrics {
    obs::Counter* txs;
    obs::Histogram* gas;
  };
  MethodMetrics& method_metrics(const std::string& method);
  std::map<std::string, MethodMetrics> method_metrics_;

  std::uint64_t height_ = 0;
  std::vector<TxReceipt> receipts_;
  std::vector<Event> events_;
  std::vector<BlockHeader> headers_;
};

}  // namespace cbl::chain
