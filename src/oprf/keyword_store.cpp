#include "oprf/keyword_store.h"

#include <algorithm>

#include "oprf/blind.h"

namespace cbl::oprf {

KeywordStore::KeywordStore(Oracle oracle, unsigned lambda, Rng& rng)
    : oracle_(oracle), lambda_(lambda), rng_(rng) {
  if (lambda == 0 || lambda > 32) {
    throw std::invalid_argument("KeywordStore: lambda must be in [1,32]");
  }
}

void KeywordStore::build(
    const std::vector<std::pair<std::string, Bytes>>& records) {
  mask_ = Secret(ec::Scalar::random(rng_));
  buckets_.clear();
  record_count_ = 0;

  for (const auto& [keyword, value] : records) {
    const Bytes raw = to_bytes(keyword);
    TaggedRecord record;
    record.tag = (oracle_.map_to_group(raw) * mask_).encode();
    record.ciphertext =
        OprfServer::seal_metadata(OprfServer::metadata_key(record.tag), value);
    buckets_[Oracle::prefix(raw, lambda_)].push_back(std::move(record));
    ++record_count_;
  }
  for (auto& [prefix, bucket] : buckets_) {
    std::sort(bucket.begin(), bucket.end(),
              [](const TaggedRecord& a, const TaggedRecord& b) {
                return a.tag < b.tag;
              });
  }
}

KeywordStore::LookupResponse KeywordStore::lookup(
    const LookupRequest& request) const {
  if (request.prefix >> lambda_ != 0) {
    throw ProtocolError("KeywordStore: prefix out of range");
  }
  const auto blinded = ec::RistrettoPoint::decode(request.blinded_keyword);
  if (!blinded) {
    throw ProtocolError("KeywordStore: malformed blinded keyword");
  }
  LookupResponse response;
  response.evaluated = (*blinded * mask_).encode();
  const auto it = buckets_.find(request.prefix);
  if (it != buckets_.end()) response.bucket = it->second;
  return response;
}

std::pair<KeywordStore::LookupRequest, KeywordStore::Pending>
KeywordStore::prepare(const Oracle& oracle, unsigned lambda,
                      std::string_view keyword, Rng& rng) {
  const Bytes raw = to_bytes(keyword);
  Pending pending;
  pending.blinding = Secret(ec::Scalar::random(rng));
  pending.prefix = Oracle::prefix(raw, lambda);

  LookupRequest request;
  request.prefix = pending.prefix;
  request.blinded_keyword =
      blind_half(oracle.map_to_group(raw), pending.blinding)
          .double_and_encode();
  return {request, pending};
}

std::optional<Bytes> KeywordStore::finish(const Pending& pending,
                                          const LookupResponse& response) {
  const auto evaluated = ec::RistrettoPoint::decode(response.evaluated);
  if (!evaluated) {
    throw ProtocolError("KeywordStore: malformed evaluation");
  }
  const auto tag = unblind(*evaluated, pending.blinding);
  const auto it = std::lower_bound(
      response.bucket.begin(), response.bucket.end(), tag,
      [](const TaggedRecord& r, const ec::RistrettoPoint::Encoding& t) {
        return r.tag < t;
      });
  if (it == response.bucket.end() || !(it->tag == tag)) return std::nullopt;
  return OprfServer::open_metadata(OprfServer::metadata_key(tag),
                                   it->ciphertext);
}

std::optional<Bytes> KeywordStore::client_lookup(std::string_view keyword,
                                                 Rng& rng) const {
  const auto [request, pending] = prepare(oracle_, lambda_, keyword, rng);
  return finish(pending, lookup(request));
}

}  // namespace cbl::oprf
