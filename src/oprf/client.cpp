#include "oprf/client.h"

#include <algorithm>

#include "oprf/blind.h"

namespace cbl::oprf {

OprfClient::OprfClient(Oracle oracle, unsigned lambda, Rng& rng)
    : oracle_(oracle), lambda_(lambda), rng_(rng) {
  if (lambda == 0 || lambda > 32) {
    throw std::invalid_argument("OprfClient: lambda must be in [1,32]");
  }
  auto& reg = obs::MetricsRegistry::global();
  const auto fastpath = [&](const char* result) {
    return &reg.counter("cbl_oprf_client_fastpath_total",
                        {{"result", result}},
                        "Prefix-list checks by whether they resolved "
                        "offline or required an online query");
  };
  metrics_.fastpath_local = fastpath("local");
  metrics_.fastpath_online = fastpath("online");
  const auto cache = [&](const char* result) {
    return &reg.counter("cbl_oprf_client_cache_total", {{"result", result}},
                        "Bucket-cache outcomes of finished online queries");
  };
  metrics_.cache_hits = cache("hit");
  metrics_.cache_misses = cache("miss");
  const auto mirror = [&](const char* result) {
    return &reg.counter("cbl_oprf_client_mirror_reads_total",
                        {{"result", result}},
                        "Omitted buckets looked up in the audited mirror, "
                        "by whether it still stood at the advertised epoch");
  };
  metrics_.mirror_reads = mirror("read");
  metrics_.mirror_refused = mirror("refused");
  const auto memo = [&](const char* result) {
    return &reg.counter("cbl_oprf_client_verdict_memo_total",
                        {{"result", result}},
                        "Finished online queries by whether the verdict "
                        "came from the bucket's memo or an unblind");
  };
  metrics_.memo_hits = memo("hit");
  metrics_.memo_misses = memo("miss");
}

OprfClient::Prepared OprfClient::prepare(std::string_view entry) const {
  return prepare(entry, hash::Sha256::digest(to_bytes(entry)));
}

OprfClient::Prepared OprfClient::prepare(
    std::string_view entry, const hash::Sha256::Digest& digest) const {
  Prepared p;
  p.pending.blinding = Secret(ec::Scalar::random(rng_));
  p.pending.half_blinded =
      blind_half(oracle_.map_to_group(to_bytes(entry)), p.pending.blinding);
  p.pending.entry_digest = digest;
  p.pending.prefix = Oracle::prefix_of_digest(digest, lambda_);

  p.request.prefix = p.pending.prefix;
  p.request.api_key = api_key_;
  p.request.want_evaluation_proof = pinned_commitment_.has_value();
  // A bucket not known to match the mirror, and no newer than it, is
  // checked against the mirror's: advertising the mirror's epoch lets
  // the server omit it whenever it has not changed since.
  const auto it = cache_.find(p.pending.prefix);
  const bool via_mirror =
      mirror_ && (it == cache_.end() || (!it->second.matches_mirror &&
                                         it->second.epoch <= mirror_->epoch));
  if (via_mirror) {
    p.pending.mirror_hint = true;
    p.pending.cached_epoch = mirror_->epoch;
  } else if (it != cache_.end()) {
    p.pending.used_cache_hint = true;
    p.pending.cached_epoch = advertised_epoch(it->second);
  }
  p.request.cached_epoch = p.pending.cached_epoch;
  p.request.masked_query = p.pending.half_blinded.double_and_encode();
  return p;
}

std::uint64_t OprfClient::advertised_epoch(const CachedBucket& slot) const {
  if (slot.matches_mirror && mirror_) {
    return std::max(slot.epoch, mirror_->epoch);
  }
  return slot.epoch;
}

void OprfClient::feed_mirror(
    std::uint64_t epoch,
    const std::optional<std::vector<std::uint32_t>>& changed,
    MirrorRead read) {
  // A bucket the deltas did not touch is unchanged from the last fed
  // epoch to this one, so one that matched the mirror still does. The
  // others stay the server's buckets at their own epochs; prepare()
  // checks them against the mirror's.
  if (!changed) {
    for (auto& [prefix, slot] : cache_) slot.matches_mirror = false;
  } else {
    for (const std::uint32_t prefix : *changed) {
      const auto it = cache_.find(prefix);
      if (it != cache_.end()) it->second.matches_mirror = false;
    }
  }
  mirror_ = Mirror{epoch, std::move(read)};
}

OprfClient::Result OprfClient::finish(const PendingQuery& pending,
                                      const QueryResponse& response) {
  const auto evaluated = ec::RistrettoPoint::decode(response.evaluated);
  if (!evaluated) {
    throw ProtocolError("OprfClient: malformed evaluated point");
  }
  if (pinned_commitment_) {
    // Verifiable OPRF: the evaluation must carry a valid DLEQ against
    // the pinned key commitment, over the masked point m that prepare()
    // kept as half of itself.
    const ec::RistrettoPoint masked =
        pending.half_blinded + pending.half_blinded;
    if (!response.evaluation_proof ||
        !response.evaluation_proof->verify(
            ec::RistrettoPoint::base(), *pinned_commitment_, masked,
            *evaluated, OprfServer::kEvalProofDomain)) {
      throw ProtocolError("OprfClient: evaluation proof missing or invalid");
    }
  }
  CachedBucket* slot = nullptr;
  if (response.bucket_omitted) {
    const auto no_match = [] {
      return ProtocolError(
          "OprfClient: server omitted bucket but no matching cache entry");
    };
    if (response.epoch < pending.cached_epoch) throw no_match();
    if (pending.mirror_hint) {
      if (!mirror_ || mirror_->epoch != pending.cached_epoch) {
        throw no_match();
      }
      auto bucket = mirror_->read(pending.prefix, pending.cached_epoch);
      if (!bucket) {
        // The mirror moved on without a feed (a sync this client did not
        // run): drop it, so no prefix reads it until the next feed.
        mirror_.reset();
        metrics_.mirror_refused->inc();
        throw no_match();
      }
      metrics_.mirror_reads->inc();
      slot = &cache_[pending.prefix];
      if (slot->bucket != *bucket) {
        slot->bucket = std::move(*bucket);
        slot->metadata.clear();  // the mirror carries no metadata
        slot->verdicts.clear();
      }
      slot->matches_mirror = true;
    } else {
      const auto it = cache_.find(pending.prefix);
      if (it == cache_.end() ||
          advertised_epoch(it->second) != pending.cached_epoch) {
        throw no_match();
      }
      slot = &it->second;
    }
    // The server vouched that the bucket is unchanged from the advertised
    // epoch up to its own, under the key it was cached under — so are the
    // verdicts against it, and so is the mirror's bucket when the mirror's
    // epoch lies in between.
    slot->epoch = response.epoch;
    slot->matches_mirror = slot->matches_mirror ||
                           (mirror_ && pending.cached_epoch <= mirror_->epoch &&
                            mirror_->epoch <= response.epoch);
    metrics_.cache_hits->inc();
    if (const auto listed = memoised_verdict(pending.entry_digest)) {
      metrics_.memo_hits->inc();
      return Result{*listed, std::nullopt};
    }
  } else {
    metrics_.cache_misses->inc();
    // Validate before caching: a rejected bucket must not be served
    // from the cache to a later query.
    if (!std::is_sorted(response.bucket.begin(), response.bucket.end())) {
      throw ProtocolError("OprfClient: bucket not in canonical order");
    }
    slot = &cache_[pending.prefix];
    slot->epoch = response.epoch;
    slot->bucket = response.bucket;
    slot->metadata = response.metadata;
    slot->verdicts.clear();  // changed contents, a new key, or a restart
    slot->matches_mirror = mirror_ && mirror_->epoch == response.epoch;
  }
  metrics_.memo_misses->inc();

  // verdict <- psi^(1/r) in s_p.
  const ec::RistrettoPoint::Encoding unblinded =
      unblind(*evaluated, pending.blinding);
  const auto& bucket = slot->bucket;
  const auto& metadata = slot->metadata;
  Result result;
  const auto it = std::lower_bound(bucket.begin(), bucket.end(), unblinded);
  result.listed = it != bucket.end() && *it == unblinded;
  if (result.listed && !metadata.empty()) {
    const std::size_t index =
        static_cast<std::size_t>(std::distance(bucket.begin(), it));
    if (index < metadata.size()) {
      result.metadata = OprfServer::open_metadata(
          OprfServer::metadata_key(unblinded), metadata[index]);
    }
    return result;
  }
  slot->verdicts.insert(std::ranges::lower_bound(slot->verdicts,
                                                 pending.entry_digest, {},
                                                 &MemoEntry::digest),
                        MemoEntry{pending.entry_digest, result.listed});
  return result;
}

std::optional<bool> OprfClient::memoised_verdict(
    const hash::Sha256::Digest& digest) const {
  const auto slot = cache_.find(Oracle::prefix_of_digest(digest, lambda_));
  if (slot == cache_.end()) return std::nullopt;
  const auto& verdicts = slot->second.verdicts;
  const auto memo =
      std::ranges::lower_bound(verdicts, digest, {}, &MemoEntry::digest);
  if (memo == verdicts.end() || memo->digest != digest) return std::nullopt;
  return memo->listed;
}

void OprfClient::set_prefix_list(std::vector<std::uint32_t> prefixes) {
  if (!std::is_sorted(prefixes.begin(), prefixes.end())) {
    std::sort(prefixes.begin(), prefixes.end());
  }
  prefix_list_ = std::move(prefixes);
}

bool OprfClient::may_be_listed(std::string_view entry) const {
  if (!prefix_list_) return true;
  return may_be_listed(hash::Sha256::digest(to_bytes(entry)));
}

bool OprfClient::may_be_listed(const hash::Sha256::Digest& digest) const {
  return !prefix_list_ ||
         std::binary_search(prefix_list_->begin(), prefix_list_->end(),
                            Oracle::prefix_of_digest(digest, lambda_));
}

bool OprfClient::fast_path_check(const hash::Sha256::Digest& digest) const {
  if (!prefix_list_) return true;
  const bool collides = may_be_listed(digest);
  (collides ? metrics_.fastpath_online : metrics_.fastpath_local)->inc();
  return collides;
}

}  // namespace cbl::oprf
