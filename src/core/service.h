// The library's top-level public API (Fig. 1 end to end):
//  - BlocklistProvider: maintains the blocklist, runs the private query
//    service, publishes the prefix list, and proposes itself for
//    decentralized evaluation;
//  - BlocklistUser: queries providers privately, with the prefix-list
//    fast path and bucket caching handled transparently;
//  - EvaluationCoordinator: the curated registry — runs evaluation
//    ceremonies against providers, tracks verdicts, schedules periodic
//    re-evaluation, and processes off-chain challenges.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blocklist/store.h"
#include "chain/blockchain.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "voting/audit.h"
#include "voting/ceremony.h"
#include "voting/registry.h"

namespace cbl::core {

struct ProviderConfig {
  unsigned lambda = 8;  // prefix bit length (k ~ |S| / 2^lambda)
  bool slow_oracle = false;
  hash::Argon2Params argon2;  // used when slow_oracle is true
  unsigned setup_threads = 1;
};

class BlocklistProvider {
 public:
  BlocklistProvider(std::string name, ProviderConfig config, Rng& rng);

  /// Ingests a feed (deduplicating) and republishes the service.
  std::size_t ingest(const std::vector<blocklist::Entry>& feed);

  /// Drops entries reported before the cutoff and republishes.
  std::size_t expire_entries(std::uint64_t cutoff);

  /// Rotates the OPRF mask R (invalidates client caches).
  void rotate_key();

  oprf::OprfServer& server() { return *server_; }
  const blocklist::Store& store() const { return store_; }
  const std::string& name() const { return name_; }
  oprf::Oracle oracle() const { return oracle_; }
  unsigned lambda() const { return config_.lambda; }

  /// The published raw blocklist (what shareholders audit against).
  std::vector<std::string> published_entries() const {
    return store_.addresses();
  }

 private:
  void republish();

  std::string name_;
  ProviderConfig config_;
  Rng& rng_;
  oprf::Oracle oracle_;
  blocklist::Store store_;
  std::unique_ptr<oprf::OprfServer> server_;
  // cbl_core_provider_ops_total{op}, resolved once.
  obs::Counter* ingest_ops_;
  obs::Counter* expire_ops_;
  obs::Counter* rotate_ops_;
};

class BlocklistUser {
 public:
  BlocklistUser(BlocklistProvider& provider, Rng& rng);

  struct QueryResult {
    bool listed = false;
    bool required_interaction = false;
    std::optional<Bytes> metadata;
  };

  /// One private membership query, using the prefix-list fast path when
  /// possible.
  QueryResult query(std::string_view address);

  struct BatchResult {
    std::vector<QueryResult> results;  // aligned with the input
    std::size_t resolved_locally = 0;
    std::size_t online_round_trips = 0;
    std::size_t buckets_transferred = 0;  // <= online_round_trips (cache)
  };

  /// Checks a batch of addresses (e.g. a whole wallet's outgoing
  /// payments). Queries sharing a prefix reuse the cached bucket, so the
  /// bucket transfer cost is paid once per distinct prefix per epoch.
  BatchResult query_many(const std::vector<std::string>& addresses);

  /// Refreshes the locally stored prefix list from the provider.
  void sync_prefix_list();

 private:
  /// query() plus, for an online query, whether the provider omitted the
  /// bucket (the client already held it); `bucket_omitted` may be null.
  QueryResult query_one(std::string_view address, bool* bucket_omitted);

  BlocklistProvider& provider_;
  oprf::OprfClient client_;
  // cbl_core_user_queries_total{path}, resolved once.
  obs::Counter* local_queries_;
  obs::Counter* online_queries_;
};

struct RegistryEntry {
  std::string provider_name;
  bool approved = false;
  std::uint64_t evaluated_at_block = 0;
  std::uint64_t next_evaluation_block = 0;
  voting::EvaluationContract::Outcome last_outcome;
};

class EvaluationCoordinator {
 public:
  EvaluationCoordinator(chain::Blockchain& chain,
                        voting::EvaluationConfig config,
                        std::uint64_t reevaluation_period_blocks, Rng& rng);

  /// Runs one full evaluation ceremony for the provider: shareholder
  /// audits feed the votes (vote 1 iff the personal audit passes), then
  /// the Fig. 4 protocol decides. Updates the registry.
  RegistryEntry evaluate(BlocklistProvider& provider,
                         std::size_t audit_samples = 20);

  /// True if a provider is due for periodic re-evaluation.
  bool due_for_reevaluation(const std::string& provider_name) const;

  /// An off-chain challenge: the challenger deposits at least the
  /// provider's stake and forces an immediate re-evaluation. Returns the
  /// refreshed registry entry. Throws ChainError on insufficient deposit.
  RegistryEntry challenge(BlocklistProvider& provider,
                          chain::AccountId challenger,
                          chain::Amount challenger_deposit,
                          std::size_t audit_samples = 20);

  /// Binds an on-chain RegistryContract: subsequent evaluate()/challenge()
  /// outcomes are also recorded there (listing pending applications,
  /// resolving open challenges). The off-chain registry map remains the
  /// coordinator's local cache.
  void attach_registry(voting::RegistryContract& registry) {
    onchain_registry_ = &registry;
  }

  std::optional<RegistryEntry> registry_lookup(const std::string& name) const;
  const std::map<std::string, RegistryEntry>& registry() const {
    return registry_;
  }

 private:
  chain::Blockchain& chain_;
  voting::EvaluationConfig config_;
  std::uint64_t period_;
  Rng& rng_;
  voting::RegistryContract* onchain_registry_ = nullptr;
  std::map<std::string, RegistryEntry> registry_;
};

}  // namespace cbl::core
