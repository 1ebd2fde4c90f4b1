#include "core/service.h"

#include "hash/sha256.h"
#include "obs/trace.h"

namespace cbl::core {

namespace {

obs::Counter* provider_counter(const char* op) {
  return &obs::MetricsRegistry::global().counter(
      "cbl_core_provider_ops_total", {{"op", op}},
      "Provider lifecycle operations (ingest / expire / rotate)");
}

obs::Counter* user_query_counter(const char* path) {
  return &obs::MetricsRegistry::global().counter(
      "cbl_core_user_queries_total", {{"path", path}},
      "BlocklistUser queries by resolution path");
}

}  // namespace

BlocklistProvider::BlocklistProvider(std::string name, ProviderConfig config,
                                     Rng& rng)
    : name_(std::move(name)),
      config_(config),
      rng_(rng),
      oracle_(config.slow_oracle ? oprf::Oracle::slow(config.argon2)
                                 : oprf::Oracle::fast()),
      ingest_ops_(provider_counter("ingest")),
      expire_ops_(provider_counter("expire")),
      rotate_ops_(provider_counter("rotate_key")) {
  server_ = std::make_unique<oprf::OprfServer>(oracle_, config_.lambda, rng_);
  republish();
}

std::size_t BlocklistProvider::ingest(
    const std::vector<blocklist::Entry>& feed) {
  ingest_ops_->inc();
  const std::size_t added = store_.merge(feed);
  if (added > 0) republish();
  return added;
}

std::size_t BlocklistProvider::expire_entries(std::uint64_t cutoff) {
  expire_ops_->inc();
  const std::size_t removed = store_.expire_older_than(cutoff);
  if (removed > 0) republish();
  return removed;
}

void BlocklistProvider::rotate_key() {
  rotate_ops_->inc();
  CBL_SPAN("core.rotate_key");
  server_->rotate_key(config_.setup_threads);
}

void BlocklistProvider::republish() {
  CBL_SPAN("core.republish");
  server_->set_metadata_provider([this](const std::string& entry) {
    const auto meta = store_.lookup(entry);
    if (!meta) return Bytes{};
    return to_bytes("category=" + blocklist::category_name(meta->category) +
                    ";reports=" + std::to_string(meta->report_count));
  });
  const auto addresses = store_.addresses();
  server_->setup(addresses, config_.setup_threads);
}

BlocklistUser::BlocklistUser(BlocklistProvider& provider, Rng& rng)
    : provider_(provider),
      client_(provider.oracle(), provider.lambda(), rng),
      local_queries_(user_query_counter("local")),
      online_queries_(user_query_counter("online")) {
  sync_prefix_list();
}

void BlocklistUser::sync_prefix_list() {
  client_.set_prefix_list(provider_.server().prefix_list());
}

BlocklistUser::QueryResult BlocklistUser::query(std::string_view address) {
  return query_one(address, nullptr);
}

BlocklistUser::QueryResult BlocklistUser::query_one(std::string_view address,
                                                    bool* bucket_omitted) {
  QueryResult result;
  const auto digest = hash::Sha256::digest(to_bytes(address));
  if (!client_.fast_path_check(digest)) {
    local_queries_->inc();
    return result;  // resolved locally: definitely not listed
  }
  online_queries_->inc();
  result.required_interaction = true;
  const auto prepared = client_.prepare(address, digest);
  const auto response = provider_.server().handle(prepared.request);
  if (bucket_omitted != nullptr) *bucket_omitted = response.bucket_omitted;
  auto finished = client_.finish(prepared.pending, response);
  result.listed = finished.listed;
  result.metadata = std::move(finished.metadata);
  return result;
}

BlocklistUser::BatchResult BlocklistUser::query_many(
    const std::vector<std::string>& addresses) {
  BatchResult batch;
  batch.results.reserve(addresses.size());
  for (const auto& address : addresses) {
    bool bucket_omitted = false;
    auto result = query_one(address, &bucket_omitted);
    if (!result.required_interaction) {
      ++batch.resolved_locally;
    } else {
      ++batch.online_round_trips;
      if (!bucket_omitted) ++batch.buckets_transferred;
    }
    batch.results.push_back(std::move(result));
  }
  return batch;
}

EvaluationCoordinator::EvaluationCoordinator(chain::Blockchain& chain,
                                             voting::EvaluationConfig config,
                                             std::uint64_t period, Rng& rng)
    : chain_(chain), config_(config), period_(period), rng_(rng) {}

RegistryEntry EvaluationCoordinator::evaluate(BlocklistProvider& provider,
                                              std::size_t audit_samples) {
  // Every registering candidate audits the provider independently and
  // votes its own verdict (Section V-C: shareholders verify membership
  // inclusion and prefix mapping, not just "quality" in the abstract).
  const auto published = provider.published_entries();
  std::vector<unsigned> votes;
  votes.reserve(config_.thresh);
  for (std::size_t i = 0; i < config_.thresh; ++i) {
    oprf::OprfClient auditor(provider.oracle(), provider.lambda(), rng_);
    const auto report = voting::audit_provider(
        provider.server(), auditor, published, audit_samples, rng_);
    votes.push_back(report.passed() ? 1u : 0u);
  }

  voting::Ceremony ceremony(chain_, config_, votes, rng_);
  const auto result = ceremony.run();

  RegistryEntry entry;
  entry.provider_name = provider.name();
  entry.approved = result.outcome.approved;
  entry.last_outcome = result.outcome;
  entry.evaluated_at_block = chain_.height();
  entry.next_evaluation_block = chain_.height() + period_;
  registry_[provider.name()] = entry;

  // Mirror the verdict into the on-chain registry, if one is attached:
  // resolve an open challenge, settle a pending application, or leave
  // unknown names to their owner.
  if (onchain_registry_) {
    const auto listing = onchain_registry_->lookup(provider.name());
    if (listing) {
      using Status = voting::RegistryContract::ListingStatus;
      if (listing->status == Status::kChallenged) {
        onchain_registry_->resolve_challenge(provider.name(),
                                             ceremony.contract());
      } else if (listing->status == Status::kPendingEvaluation) {
        onchain_registry_->record_evaluation(provider.name(),
                                             ceremony.contract());
      }
    }
  }
  chain_.seal_block();
  return entry;
}

bool EvaluationCoordinator::due_for_reevaluation(
    const std::string& provider_name) const {
  const auto it = registry_.find(provider_name);
  if (it == registry_.end()) return true;  // never evaluated
  return chain_.height() >= it->second.next_evaluation_block;
}

RegistryEntry EvaluationCoordinator::challenge(BlocklistProvider& provider,
                                               chain::AccountId challenger,
                                               chain::Amount challenger_deposit,
                                               std::size_t audit_samples) {
  if (challenger_deposit < config_.provider_deposit) {
    throw ChainError(
        "challenge: deposit must be no less than the provider's");
  }
  // The challenger's stake is held for the duration of the forced
  // re-evaluation and returned afterwards (a griefing cost, not a fee).
  const auto dep = chain_.ledger().lock_deposit(challenger, challenger_deposit);
  chain_.emit_event("challenge-opened", provider.name());
  auto entry = evaluate(provider, audit_samples);
  chain_.ledger().release_deposit(dep);
  return entry;
}

std::optional<RegistryEntry> EvaluationCoordinator::registry_lookup(
    const std::string& name) const {
  const auto it = registry_.find(name);
  if (it == registry_.end()) return std::nullopt;
  return it->second;
}

}  // namespace cbl::core
