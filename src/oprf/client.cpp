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
  const Bytes raw = to_bytes(entry);
  Prepared p;
  p.pending.blinding = Secret(ec::Scalar::random(rng_));
  p.pending.half_blinded =
      blind_half(oracle_.map_to_group(raw), p.pending.blinding);
  p.pending.entry_digest = hash::Sha256::digest(raw);
  p.pending.prefix =
      Oracle::prefix_of_digest(p.pending.entry_digest, lambda_);

  p.request.prefix = p.pending.prefix;
  p.request.api_key = api_key_;
  p.request.want_evaluation_proof = pinned_commitment_.has_value();
  const auto it = cache_.find(p.pending.prefix);
  if (it != cache_.end()) {
    p.request.cached_epoch = it->second.epoch;
    p.pending.used_cache_hint = true;
    p.pending.cached_epoch = it->second.epoch;
  }
  p.request.masked_query = p.pending.half_blinded.double_and_encode();
  return p;
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
  const auto memo_position = [&pending](std::vector<MemoEntry>& verdicts) {
    return std::ranges::lower_bound(verdicts, pending.entry_digest, {},
                                    &MemoEntry::digest);
  };
  CachedBucket* slot = nullptr;
  if (response.bucket_omitted) {
    const auto it = cache_.find(pending.prefix);
    if (it == cache_.end() || it->second.epoch != pending.cached_epoch ||
        response.epoch < pending.cached_epoch) {
      throw ProtocolError(
          "OprfClient: server omitted bucket but no matching cache entry");
    }
    // The server vouched that the bucket is unchanged up to its epoch,
    // under the key it was cached under — so are the verdicts against it.
    it->second.epoch = response.epoch;
    metrics_.cache_hits->inc();
    slot = &it->second;
    const auto memo = memo_position(slot->verdicts);
    if (memo != slot->verdicts.end() &&
        memo->digest == pending.entry_digest) {
      metrics_.memo_hits->inc();
      return Result{memo->listed, std::nullopt};
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
  slot->verdicts.insert(memo_position(slot->verdicts),
                        MemoEntry{pending.entry_digest, result.listed});
  return result;
}

void OprfClient::set_prefix_list(std::vector<std::uint32_t> prefixes) {
  prefix_list_.emplace(prefixes.begin(), prefixes.end());
}

bool OprfClient::may_be_listed(std::string_view entry) const {
  if (!prefix_list_) return true;
  const bool collides =
      prefix_list_->contains(Oracle::prefix(to_bytes(entry), lambda_));
  (collides ? metrics_.fastpath_online : metrics_.fastpath_local)->inc();
  return collides;
}

}  // namespace cbl::oprf
