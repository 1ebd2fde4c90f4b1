// Grand integration scenario: the whole system in one arc.
//   1. Two providers publish blocklists; one silently degrades.
//   2. Both apply to the on-chain registry; coordinator-run evaluations
//      list the honest one and dismiss the degraded one.
//   3. A user reaches the listed provider over the lossy network with a
//      pinned verifiable-OPRF commitment and checks payment addresses
//      across all four supported chains.
//   4. A watchdog challenge forces a re-evaluation after the listed
//      provider degrades too; it gets delisted and slashed.
//   5. A third party replays the public evaluation record and verifies a
//      receipt against the sealed block's Merkle root.
#include <gtest/gtest.h>

#include <iostream>

#include "blocklist/generator.h"
#include "cbl.h"
#include "common/rng.h"
#include "net/resilient_client.h"

namespace cbl {
namespace {

TEST(GrandScenario, EndToEnd) {
  auto rng = ChaChaRng::from_string_seed("grand");
  chain::Blockchain chain;

  // ---- 1. providers ------------------------------------------------------
  core::ProviderConfig pcfg;
  pcfg.lambda = 8;
  core::BlocklistProvider honest("honest", pcfg, rng);
  core::BlocklistProvider shady("shady", pcfg, rng);

  blocklist::FeedConfig fcfg;
  fcfg.count = 400;
  const auto feed = blocklist::generate_feed(fcfg, rng);
  honest.ingest(feed);
  shady.ingest(feed);
  // Shady silently serves only a third of what it publishes.
  auto published = shady.published_entries();
  std::vector<std::string> third(published.begin(),
                                 published.begin() +
                                     static_cast<long>(published.size() / 3));
  shady.server().setup(third);

  // ---- 2. registry + evaluations -----------------------------------------
  voting::RegistryConfig rcfg;
  rcfg.min_stake = 100;
  rcfg.listing_period = 1'000;
  voting::RegistryContract registry(chain, rcfg);

  voting::EvaluationConfig vcfg;
  vcfg.thresh = 5;
  vcfg.committee_size = 3;
  vcfg.deposit = 20;
  vcfg.provider_deposit = 10;
  core::EvaluationCoordinator coordinator(chain, vcfg, 1'000, rng);
  coordinator.attach_registry(registry);

  const auto honest_acct = chain.ledger().create_account("honest-acct");
  const auto shady_acct = chain.ledger().create_account("shady-acct");
  chain.ledger().mint(honest_acct, 500);
  chain.ledger().mint(shady_acct, 500);
  registry.apply(honest_acct, "honest", 100);
  registry.apply(shady_acct, "shady", 100);

  EXPECT_TRUE(coordinator.evaluate(honest, 15).approved);
  EXPECT_FALSE(coordinator.evaluate(shady, 25).approved);
  EXPECT_TRUE(registry.is_listed("honest"));
  EXPECT_FALSE(registry.is_listed("shady"));
  EXPECT_EQ(chain.ledger().balance(shady_acct), 500);  // dismissed, refunded

  // ---- 3. a user queries the listed provider over the network ------------
  net::TransportConfig tcfg;
  tcfg.latency_ms_min = 5;
  tcfg.latency_ms_max = 30;
  tcfg.drop_rate = 0.1;
  net::Transport transport(tcfg, rng);
  net::BlocklistServiceNode node(transport, "honest.example", honest.server(),
                                 honest.oracle());
  net::ResilientClient remote(transport, {"honest.example"}, rng);
  ASSERT_EQ(remote.sync(), 1u);

  // Listed entries across whatever chains the feed produced...
  int listed_found = 0;
  unsigned queries = 0;
  unsigned attempts = 0;
  for (std::size_t i = 0; i < feed.size(); i += 61) {
    const auto outcome = remote.query(feed[i].address);
    ++queries;
    attempts += outcome.attempts;
    if (outcome.freshness == net::Freshness::kFresh && outcome.listed()) {
      ++listed_found;
    }
  }
  EXPECT_GE(listed_found, 5);

  // ...and clean addresses of every supported format stay clean.
  for (const auto chain_kind :
       {blocklist::Chain::kBitcoin, blocklist::Chain::kEthereum,
        blocklist::Chain::kRipple, blocklist::Chain::kBitcoinSegwit}) {
    const auto addr = blocklist::random_address(chain_kind, rng);
    const auto outcome = remote.query(addr);
    ++queries;
    attempts += outcome.attempts;
    ASSERT_EQ(outcome.freshness, net::Freshness::kFresh) << addr;
    EXPECT_FALSE(outcome.listed()) << addr;
  }
  std::cout << "[grand] " << queries << " queries over 10% loss took "
            << attempts << " attempts\n";

  // Verifiable OPRF directly against the server (pinned commitment).
  {
    auto vrng = ChaChaRng::from_string_seed("grand-voprf");
    oprf::OprfClient pinned(honest.oracle(), honest.lambda(), vrng);
    pinned.pin_key_commitment(honest.server().key_commitment());
    const auto prepared = pinned.prepare(feed[0].address);
    const auto response = honest.server().handle(prepared.request);
    EXPECT_TRUE(pinned.finish(prepared.pending, response).listed);
  }

  // ---- 4. the listed provider degrades; challenge delists it -------------
  auto honest_published = honest.published_entries();
  std::vector<std::string> half(
      honest_published.begin(),
      honest_published.begin() + static_cast<long>(honest_published.size() / 2));
  honest.server().setup(half);

  const auto watchdog = chain.ledger().create_account("watchdog");
  chain.ledger().mint(watchdog, 200);
  registry.open_challenge(watchdog, "honest", 100);
  EXPECT_FALSE(coordinator.evaluate(honest, 25).approved);
  EXPECT_FALSE(registry.is_listed("honest"));
  EXPECT_EQ(registry.lookup("honest")->status,
            voting::RegistryContract::ListingStatus::kDelisted);
  EXPECT_GT(chain.ledger().balance(watchdog), 100);  // won the slash share

  // ---- 5. public verification of the chain's history ---------------------
  chain.seal_block();
  ASSERT_FALSE(chain.headers().empty());
  ASSERT_FALSE(chain.receipts().empty());
  const auto proof = chain.receipt_inclusion_proof(0, 0);
  EXPECT_TRUE(chain::Blockchain::verify_receipt_inclusion(
      chain.headers()[0], chain.receipts()[0], proof));

  // A fresh ceremony with an exported record replays cleanly.
  voting::Ceremony audit_ceremony(chain, vcfg,
                                  std::vector<unsigned>{1, 1, 0, 1, 0}, rng);
  audit_ceremony.fund_and_shield();
  audit_ceremony.register_all();
  audit_ceremony.reveal_all();
  audit_ceremony.finalize_committee();
  audit_ceremony.vote_all();
  const auto exported = audit_ceremony.contract().export_record();
  voting::ProposalRecord record;
  record.config = vcfg;
  record.challenge = exported.challenge;
  record.round1 = exported.round1;
  record.vrf_reveals = exported.vrf_reveals;
  record.committee = exported.committee;
  record.round2 = exported.round2;
  record.claimed_outcome = exported.outcome;
  auto audit_rng = ChaChaRng::from_string_seed("grand-audit");
  const auto report = voting::replay_proposal(chain.crs(), record, audit_rng);
  EXPECT_TRUE(report.valid) << (report.violations.empty()
                                    ? ""
                                    : report.violations.front());

  // Token conservation across the whole story.
  EXPECT_GT(chain.ledger().total_supply(), 0);
}

}  // namespace
}  // namespace cbl
