#include "chain/blockchain.h"

#include "ec/codec.h"
#include "obs/metrics.h"

namespace cbl::chain {

Blockchain::Blockchain(GasSchedule schedule, const commit::Crs& crs)
    : schedule_(schedule), crs_(crs), ledger_(), pool_(ledger_, crs_) {}

TxReceipt Blockchain::execute(AccountId payer, std::string method,
                              std::size_t payload_bytes,
                              const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();  // ChainError propagates: the transaction reverts, no receipt
  const auto end = std::chrono::steady_clock::now();

  TxReceipt receipt;
  receipt.block = height_;
  receipt.method = std::move(method);
  receipt.payer = payer;
  receipt.payload_bytes = payload_bytes;
  receipt.cpu_micros =
      std::chrono::duration<double, std::micro>(end - start).count();
  receipt.storage_gas = schedule_.storage_gas(payload_bytes);
  receipt.compute_gas = schedule_.compute_gas(receipt.cpu_micros);
  receipt.gas_used =
      schedule_.base_tx_gas + receipt.storage_gas + receipt.compute_gas;
  receipt.usd_cost = schedule_.gas_to_usd(receipt.gas_used);
  receipts_.push_back(receipt);

  MethodMetrics& metrics = method_metrics(receipt.method);
  metrics.txs->inc();
  metrics.gas->observe(static_cast<double>(receipt.gas_used));
  return receipt;
}

Blockchain::MethodMetrics& Blockchain::method_metrics(
    const std::string& method) {
  const auto it = method_metrics_.find(method);
  if (it != method_metrics_.end()) return it->second;
  auto& registry = obs::MetricsRegistry::global();
  const obs::Labels labels = {{"method", method}};
  MethodMetrics metrics;
  metrics.txs = &registry.counter("cbl_chain_tx_total", labels,
                                  "Executed contract transactions by method");
  metrics.gas = &registry.histogram("cbl_chain_gas_per_tx",
                                    obs::Histogram::log_buckets(1e3, 1e9, 3),
                                    labels, "Gas consumed per contract call");
  return method_metrics_.emplace(method, metrics).first->second;
}

hash::Sha256::Digest BlockHeader::hash() const {
  hash::Sha256 h;
  h.update("cbl/chain/header");
  std::uint8_t buf[8];
  store_le64(buf, height);
  h.update(ByteView(buf, 8));
  h.update(ByteView(prev_hash.data(), prev_hash.size()));
  h.update(ByteView(receipt_root.data(), receipt_root.size()));
  store_le64(buf, tx_count);
  h.update(ByteView(buf, 8));
  return h.finalize();
}

Bytes Blockchain::receipt_leaf(const TxReceipt& receipt) {
  ec::WireWriter w;
  w.u64(receipt.block);
  w.var_bytes(to_bytes(receipt.method));
  w.u64(receipt.payer);
  w.u64(receipt.payload_bytes);
  w.u64(receipt.gas_used);
  return w.take();
}

std::vector<Bytes> Blockchain::open_block_leaves(std::uint64_t block) const {
  std::vector<Bytes> leaves;
  for (const auto& r : receipts_) {
    if (r.block == block) leaves.push_back(receipt_leaf(r));
  }
  return leaves;
}

void Blockchain::seal_block() {
  BlockHeader header;
  header.height = height_;
  if (!headers_.empty()) header.prev_hash = headers_.back().hash();
  const auto leaves = open_block_leaves(height_);
  header.tx_count = leaves.size();
  header.receipt_root = MerkleTree(leaves).root();
  headers_.push_back(header);
  ++height_;
}

MerkleTree::Proof Blockchain::receipt_inclusion_proof(
    std::uint64_t block, std::size_t index_in_block) const {
  if (block >= headers_.size()) {
    throw ChainError("Blockchain: block not sealed");
  }
  return MerkleTree(open_block_leaves(block)).prove(index_in_block);
}

bool Blockchain::verify_receipt_inclusion(const BlockHeader& header,
                                          const TxReceipt& receipt,
                                          const MerkleTree::Proof& proof) {
  if (receipt.block != header.height) return false;
  return MerkleTree::verify(header.receipt_root, receipt_leaf(receipt),
                            proof);
}

void Blockchain::emit_event(std::string topic, std::string data) {
  events_.push_back(Event{height_, std::move(topic), std::move(data)});
}

std::uint64_t Blockchain::total_gas() const {
  std::uint64_t total = 0;
  for (const auto& r : receipts_) total += r.gas_used;
  return total;
}

std::uint64_t Blockchain::gas_paid_by(AccountId payer) const {
  std::uint64_t total = 0;
  for (const auto& r : receipts_) {
    if (r.payer == payer) total += r.gas_used;
  }
  return total;
}

double Blockchain::usd_paid_by(AccountId payer) const {
  double total = 0;
  for (const auto& r : receipts_) {
    if (r.payer == payer) total += r.usd_cost;
  }
  return total;
}

std::size_t Blockchain::bytes_stored_by(AccountId payer) const {
  std::size_t total = 0;
  for (const auto& r : receipts_) {
    if (r.payer == payer) total += r.payload_bytes;
  }
  return total;
}

Bytes Blockchain::randomness_beacon() const {
  hash::Sha256 h;
  h.update("cbl/chain/beacon");
  std::uint8_t counters[24];
  store_le64(counters, height_);
  store_le64(counters + 8, receipts_.size());
  store_le64(counters + 16, events_.size());
  h.update(ByteView(counters, sizeof counters));
  for (const auto& e : events_) {
    h.update(e.topic).update(e.data);
  }
  const auto digest = h.finalize();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace cbl::chain
