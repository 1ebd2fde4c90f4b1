// The on-chain token-curated registry of blocklist services — the
// "list of 'evaluated' blocklists" of Section V, following the TCR
// pattern the paper builds on [15][37]. Providers apply with a stake and
// are listed after a successful decentralized evaluation; any party can
// challenge a listing by matching the stake, forcing a re-evaluation
// whose loser is slashed. Listings also expire, implementing the
// "provider has to repeat the procedures periodically" rule.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "chain/blockchain.h"
#include "voting/contract.h"

namespace cbl::voting {

struct RegistryConfig {
  chain::Amount min_stake = 100;
  /// Blocks a listing stays valid before periodic re-evaluation is due.
  std::uint64_t listing_period = 100;
  /// Slashed stakes: this fraction (percent) goes to the winning party,
  /// the rest to the treasury reward pool.
  unsigned winner_share_percent = 50;
};

class RegistryContract {
 public:
  enum class ListingStatus {
    kPendingEvaluation,  // applied, awaiting first evaluation
    kListed,
    kChallenged,         // listed but under an open challenge
    kDelisted,
  };

  struct Listing {
    std::string name;
    chain::AccountId provider = 0;
    chain::DepositId stake = 0;
    ListingStatus status = ListingStatus::kPendingEvaluation;
    std::uint64_t listed_at_block = 0;
    std::uint64_t expires_at_block = 0;
    // Open challenge, if any.
    std::optional<chain::AccountId> challenger;
    std::optional<chain::DepositId> challenger_stake;
  };

  RegistryContract(chain::Blockchain& chain, RegistryConfig config);

  /// A provider applies with at least min_stake. Throws on duplicate
  /// names or insufficient stake.
  void apply(chain::AccountId provider, const std::string& name,
             chain::Amount stake);

  /// Binds a COMPLETED evaluation (kTallied or later) to a pending
  /// application: approved -> listed for listing_period blocks;
  /// rejected -> application dismissed, stake returned (an honest but
  /// low-quality applicant is turned away, not robbed).
  void record_evaluation(const std::string& name,
                         const EvaluationContract& evaluation);

  /// Opens a challenge against a listed provider; the challenger must
  /// match the provider's stake ("deposits should be no less than the
  /// blocklist service provider").
  void open_challenge(chain::AccountId challenger, const std::string& name,
                      chain::Amount stake);

  /// Resolves an open challenge with a completed evaluation:
  /// approved  -> provider survives, challenger's stake is slashed
  ///              (winner share to provider, rest to treasury);
  /// rejected  -> provider is delisted and slashed (winner share to the
  ///              challenger), challenger stake returns.
  void resolve_challenge(const std::string& name,
                         const EvaluationContract& evaluation);

  /// Periodic duty: after expiry anyone can flag the listing, pushing it
  /// back to kPendingEvaluation (stake stays locked until re-evaluated).
  void flag_expired(const std::string& name);

  bool is_listed(const std::string& name) const;
  std::optional<Listing> lookup(const std::string& name) const;

 private:
  Listing& require_listing(const std::string& name);
  static bool evaluation_completed(const EvaluationContract& evaluation);

  chain::Blockchain& chain_;
  RegistryConfig config_;
  std::map<std::string, Listing> listings_;
};

}  // namespace cbl::voting
