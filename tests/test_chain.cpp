// Tests for the blockchain substrate: ledger/deposits, gas metering and
// USD conversion, events/beacon, and the shielded pool (shield / split /
// unshield, locking, conservation invariants).
#include <gtest/gtest.h>

#include "chain/blockchain.h"
#include "common/rng.h"
#include "metric_delta.h"
#include "obs/metrics.h"

namespace cbl::chain {
namespace {

using cbl::ChaChaRng;
using commit::Commitment;
using commit::Crs;
using commit::Opening;
using ec::Scalar;

class ChainTest : public ::testing::Test {
 protected:
  Blockchain chain_;
  ChaChaRng rng_ = ChaChaRng::from_string_seed("chain-tests");

  AccountId funded_account(const std::string& label, Amount amount) {
    const auto id = chain_.ledger().create_account(label);
    chain_.ledger().mint(id, amount);
    return id;
  }

  struct NoteWithOpening {
    Commitment note;
    Opening opening;
  };

  NoteWithOpening make_note(Amount value) {
    const auto& crs = chain_.crs();
    Opening opening{Scalar::from_u64(static_cast<std::uint64_t>(value)),
                    Scalar::random(rng_)};
    return {Commitment::commit(crs.g, crs.h, opening), opening};
  }

  nizk::SchnorrProof residue_proof(const NoteWithOpening& n, Amount claimed) {
    const auto& crs = chain_.crs();
    const ec::RistrettoPoint residue =
        n.note.point() -
        crs.g * Scalar::from_u64(static_cast<std::uint64_t>(claimed));
    return nizk::SchnorrProof::prove(crs.h, residue,
                                     n.opening.randomness.expose_secret(),
                                     ShieldedPool::kSpendDomain, rng_);
  }
};

// -------------------------------------------------------------------- Ledger

TEST_F(ChainTest, LedgerTransfers) {
  const auto alice = funded_account("alice", 100);
  const auto bob = funded_account("bob", 0);
  chain_.ledger().transfer(alice, bob, 40);
  EXPECT_EQ(chain_.ledger().balance(alice), 60);
  EXPECT_EQ(chain_.ledger().balance(bob), 40);
  EXPECT_THROW(chain_.ledger().transfer(alice, bob, 61), ChainError);
  EXPECT_THROW(chain_.ledger().transfer(alice, bob, -1), ChainError);
  EXPECT_THROW(chain_.ledger().transfer(alice, 999, 1), ChainError);
}

TEST_F(ChainTest, DepositLifecycle) {
  const auto alice = funded_account("alice", 100);
  const auto dep = chain_.ledger().lock_deposit(alice, 80);
  EXPECT_EQ(chain_.ledger().balance(alice), 20);
  EXPECT_EQ(chain_.ledger().deposit_amount(dep), 80);

  chain_.ledger().slash_deposit(dep, 30);
  EXPECT_EQ(chain_.ledger().deposit_amount(dep), 50);
  EXPECT_EQ(chain_.ledger().balance(chain_.ledger().treasury()), 30);

  chain_.ledger().release_deposit(dep);
  EXPECT_EQ(chain_.ledger().balance(alice), 70);
  EXPECT_THROW(chain_.ledger().release_deposit(dep), ChainError);
  EXPECT_THROW(chain_.ledger().slash_deposit(dep, 1), ChainError);
}

TEST_F(ChainTest, DepositValidation) {
  const auto alice = funded_account("alice", 10);
  EXPECT_THROW(chain_.ledger().lock_deposit(alice, 11), ChainError);
  EXPECT_THROW(chain_.ledger().lock_deposit(alice, 0), ChainError);
  const auto dep = chain_.ledger().lock_deposit(alice, 10);
  EXPECT_THROW(chain_.ledger().slash_deposit(dep, 11), ChainError);
}

TEST_F(ChainTest, TotalSupplyConserved) {
  const auto alice = funded_account("alice", 100);
  const auto bob = funded_account("bob", 50);
  const Amount before = chain_.ledger().total_supply();
  chain_.ledger().transfer(alice, bob, 30);
  const auto dep = chain_.ledger().lock_deposit(bob, 25);
  chain_.ledger().slash_deposit(dep, 10);
  chain_.ledger().release_deposit(dep);
  EXPECT_EQ(chain_.ledger().total_supply(), before);
}

// ----------------------------------------------------------------------- Gas

TEST_F(ChainTest, GasScheduleConversions) {
  GasSchedule g;
  EXPECT_EQ(g.storage_gas(32), 32u * 625u);
  EXPECT_EQ(g.compute_gas(100.0), 1000u);  // 100 us at 10 gas/us
  // 1e9 gas at 11.8 gwei = 11.8 ETH.
  EXPECT_NEAR(g.gas_to_eth(1'000'000'000), 11.8, 1e-9);
  EXPECT_NEAR(g.gas_to_usd(1'000'000'000), 11.8 * g.usd_per_eth, 1e-6);
}

TEST_F(ChainTest, ExecuteMetersStorageAndCompute) {
  const auto alice = funded_account("alice", 10);
  const auto receipt = chain_.execute(alice, "test-method", 1000, [] {
    volatile int x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
  });
  EXPECT_EQ(receipt.method, "test-method");
  EXPECT_EQ(receipt.storage_gas, 625'000u);
  EXPECT_GT(receipt.cpu_micros, 0.0);
  EXPECT_EQ(receipt.gas_used,
            21'000 + receipt.storage_gas + receipt.compute_gas);
  EXPECT_GT(receipt.usd_cost, 0.0);
  EXPECT_EQ(chain_.gas_paid_by(alice), receipt.gas_used);
  EXPECT_EQ(chain_.bytes_stored_by(alice), 1000u);
}

TEST_F(ChainTest, RevertedTransactionLeavesNoReceipt) {
  const auto alice = funded_account("alice", 10);
  EXPECT_THROW(chain_.execute(alice, "boom", 10,
                              [] { throw ChainError("nope"); }),
               ChainError);
  EXPECT_TRUE(chain_.receipts().empty());
  EXPECT_EQ(chain_.total_gas(), 0u);
}

TEST_F(ChainTest, ExecuteCountsTransactionsAndGasPerMethod) {
  const auto alice = funded_account("alice", 10);
  auto& registry = obs::MetricsRegistry::global();
  const auto gas_of = [&registry](const std::string& method) -> auto& {
    return registry.histogram("cbl_chain_gas_per_tx",
                              obs::Histogram::log_buckets(1e3, 1e9, 3),
                              {{"method", method}});
  };
  const test::CounterDelta a_txs("cbl_chain_tx_total",
                                 {{"method", "metrics-a"}});
  const test::CounterDelta b_txs("cbl_chain_tx_total",
                                 {{"method", "metrics-b"}});
  const obs::Histogram& a_gas = gas_of("metrics-a");
  const obs::Histogram& b_gas = gas_of("metrics-b");
  const std::uint64_t a_count = a_gas.count();
  const double a_sum = a_gas.sum();
  const std::uint64_t b_count = b_gas.count();

  std::uint64_t a_gas_used = 0;
  for (std::size_t bytes : {100u, 300u}) {
    a_gas_used += chain_.execute(alice, "metrics-a", bytes, [] {}).gas_used;
  }
  chain_.execute(alice, "metrics-b", 50, [] {});

  EXPECT_EQ(a_txs.value(), 2u);
  EXPECT_EQ(b_txs.value(), 1u);
  EXPECT_EQ(a_gas.count() - a_count, 2u);
  EXPECT_EQ(b_gas.count() - b_count, 1u);
  EXPECT_DOUBLE_EQ(a_gas.sum() - a_sum, static_cast<double>(a_gas_used));
}

// -------------------------------------------------------- Events and beacon

TEST_F(ChainTest, EventsAndBlocks) {
  chain_.emit_event("topic-a", "data");
  chain_.seal_block();
  chain_.emit_event("topic-b");
  ASSERT_EQ(chain_.events().size(), 2u);
  EXPECT_EQ(chain_.events()[0].block, 0u);
  EXPECT_EQ(chain_.events()[1].block, 1u);
  EXPECT_EQ(chain_.height(), 1u);
}

TEST_F(ChainTest, BeaconEvolvesWithState) {
  const auto b1 = chain_.randomness_beacon();
  chain_.emit_event("something happened");
  const auto b2 = chain_.randomness_beacon();
  EXPECT_NE(b1, b2);
  EXPECT_EQ(chain_.randomness_beacon(), b2);  // deterministic snapshot
}

// ------------------------------------------------------------- Shielded pool

TEST_F(ChainTest, ShieldUnshieldRoundTrip) {
  const auto alice = funded_account("alice", 100);
  const auto bob = funded_account("bob", 0);
  const auto n = make_note(60);

  chain_.shielded_pool().shield(alice, 60, n.note, residue_proof(n, 60));
  EXPECT_EQ(chain_.ledger().balance(alice), 40);
  EXPECT_EQ(chain_.shielded_pool().escrow_balance(), 60);
  EXPECT_TRUE(chain_.shielded_pool().note_exists(n.note));

  chain_.shielded_pool().unshield(n.note, 60, residue_proof(n, 60), bob);
  EXPECT_EQ(chain_.ledger().balance(bob), 60);
  EXPECT_TRUE(chain_.shielded_pool().note_spent(n.note));
  EXPECT_EQ(chain_.shielded_pool().escrow_balance(), 0);
}

TEST_F(ChainTest, ShieldRejectsWrongAmountCommitment) {
  const auto alice = funded_account("alice", 100);
  const auto n = make_note(60);
  // Claim to deposit 50 while the note commits 60: residue is not h^r.
  EXPECT_THROW(
      chain_.shielded_pool().shield(alice, 50, n.note, residue_proof(n, 60)),
      ChainError);
}

TEST_F(ChainTest, UnshieldRejectsOverClaim) {
  const auto alice = funded_account("alice", 100);
  const auto bob = funded_account("bob", 0);
  const auto n = make_note(60);
  chain_.shielded_pool().shield(alice, 60, n.note, residue_proof(n, 60));
  // Claiming 61: the residue proof cannot verify.
  EXPECT_THROW(
      chain_.shielded_pool().unshield(n.note, 61, residue_proof(n, 60), bob),
      ChainError);
  // And a proof computed "for" 61 is a proof of a false statement.
  EXPECT_THROW(
      chain_.shielded_pool().unshield(n.note, 61, residue_proof(n, 61), bob),
      ChainError);
}

TEST_F(ChainTest, DoubleSpendRejected) {
  const auto alice = funded_account("alice", 100);
  const auto bob = funded_account("bob", 0);
  const auto n = make_note(30);
  chain_.shielded_pool().shield(alice, 30, n.note, residue_proof(n, 30));
  chain_.shielded_pool().unshield(n.note, 30, residue_proof(n, 30), bob);
  EXPECT_THROW(
      chain_.shielded_pool().unshield(n.note, 30, residue_proof(n, 30), bob),
      ChainError);
}

TEST_F(ChainTest, SplitConservesValueHomomorphically) {
  const auto& crs = chain_.crs();
  const auto alice = funded_account("alice", 100);
  const auto n = make_note(50);
  chain_.shielded_pool().shield(alice, 50, n.note, residue_proof(n, 50));

  // 50 -> 20 + 30 with randomness splitting.
  Opening o1{Scalar::from_u64(20), Scalar::random(rng_)};
  Opening o2{Scalar::from_u64(30), n.opening.randomness - o1.randomness};
  const auto out1 = Commitment::commit(crs.g, crs.h, o1);
  const auto out2 = Commitment::commit(crs.g, crs.h, o2);
  const auto auth = nizk::RepresentationProof::prove(
      crs.g, crs.h, n.note.point(), n.opening.value.expose_secret(),
      n.opening.randomness.expose_secret(), ShieldedPool::kSpendDomain, rng_);
  chain_.shielded_pool().split(n.note, auth, out1, out2);

  EXPECT_TRUE(chain_.shielded_pool().note_spent(n.note));
  EXPECT_EQ(chain_.shielded_pool().live_notes(), 2u);

  // Both outputs can be withdrawn for their exact committed values.
  const auto bob = funded_account("bob", 0);
  const ec::RistrettoPoint residue1 = out1.point() - crs.g * o1.value;
  chain_.shielded_pool().unshield(
      out1, 20,
      nizk::SchnorrProof::prove(crs.h, residue1, o1.randomness.expose_secret(),
                                ShieldedPool::kSpendDomain, rng_),
      bob);
  EXPECT_EQ(chain_.ledger().balance(bob), 20);
}

TEST_F(ChainTest, SplitRejectsValueInflation) {
  const auto& crs = chain_.crs();
  const auto alice = funded_account("alice", 100);
  const auto n = make_note(50);
  chain_.shielded_pool().shield(alice, 50, n.note, residue_proof(n, 50));

  // 50 -> 30 + 30 does not satisfy input = out1 * out2.
  Opening o1{Scalar::from_u64(30), Scalar::random(rng_)};
  Opening o2{Scalar::from_u64(30), n.opening.randomness - o1.randomness};
  const auto auth = nizk::RepresentationProof::prove(
      crs.g, crs.h, n.note.point(), n.opening.value.expose_secret(),
      n.opening.randomness.expose_secret(), ShieldedPool::kSpendDomain, rng_);
  EXPECT_THROW(
      chain_.shielded_pool().split(n.note, auth,
                                   Commitment::commit(crs.g, crs.h, o1),
                                   Commitment::commit(crs.g, crs.h, o2)),
      ChainError);
}

TEST_F(ChainTest, SplitRejectsForeignSpendAuth) {
  const auto& crs = chain_.crs();
  const auto alice = funded_account("alice", 100);
  const auto n = make_note(50);
  chain_.shielded_pool().shield(alice, 50, n.note, residue_proof(n, 50));

  Opening o1{Scalar::from_u64(20), Scalar::random(rng_)};
  Opening o2{Scalar::from_u64(30), n.opening.randomness - o1.randomness};
  // Proof for a DIFFERENT note does not authorize this spend.
  const auto other = make_note(50);
  const auto bad_auth = nizk::RepresentationProof::prove(
      crs.g, crs.h, other.note.point(), other.opening.value.expose_secret(),
      other.opening.randomness.expose_secret(), ShieldedPool::kSpendDomain,
      rng_);
  EXPECT_THROW(
      chain_.shielded_pool().split(n.note, bad_auth,
                                   Commitment::commit(crs.g, crs.h, o1),
                                   Commitment::commit(crs.g, crs.h, o2)),
      ChainError);
}

TEST_F(ChainTest, LockedNoteCannotBeSpent) {
  const auto alice = funded_account("alice", 100);
  const auto bob = funded_account("bob", 0);
  const auto n = make_note(40);
  chain_.shielded_pool().shield(alice, 40, n.note, residue_proof(n, 40));
  chain_.shielded_pool().lock_note(n.note);
  EXPECT_TRUE(chain_.shielded_pool().note_locked(n.note));
  EXPECT_THROW(
      chain_.shielded_pool().unshield(n.note, 40, residue_proof(n, 40), bob),
      ChainError);
  EXPECT_THROW(chain_.shielded_pool().lock_note(n.note), ChainError);
  chain_.shielded_pool().unlock_note(n.note);
  chain_.shielded_pool().unshield(n.note, 40, residue_proof(n, 40), bob);
  EXPECT_EQ(chain_.ledger().balance(bob), 40);
}

TEST_F(ChainTest, ReplaceNoteConsumesOldCreatesNew) {
  const auto alice = funded_account("alice", 100);
  const auto n = make_note(40);
  chain_.shielded_pool().shield(alice, 40, n.note, residue_proof(n, 40));
  const auto updated = make_note(41);
  chain_.shielded_pool().replace_note(n.note, updated.note);
  EXPECT_TRUE(chain_.shielded_pool().note_spent(n.note));
  EXPECT_TRUE(chain_.shielded_pool().note_exists(updated.note));
  EXPECT_THROW(chain_.shielded_pool().replace_note(n.note, make_note(5).note),
               ChainError);
}

TEST_F(ChainTest, DuplicateNoteRejected) {
  const auto alice = funded_account("alice", 200);
  const auto n = make_note(40);
  chain_.shielded_pool().shield(alice, 40, n.note, residue_proof(n, 40));
  EXPECT_THROW(
      chain_.shielded_pool().shield(alice, 40, n.note, residue_proof(n, 40)),
      ChainError);
}

}  // namespace
}  // namespace cbl::chain
