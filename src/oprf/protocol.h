// Wire messages of the privacy-preserving membership query protocol
// (Fig. 2), plus size accounting used by the Table I / Fig. 6 benches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/secret.h"
#include "ec/ristretto.h"
#include "hash/sha256.h"
#include "nizk/sigma.h"

namespace cbl::oprf {

inline constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

/// C -> S: the lambda-bit plaintext prefix plus the blinded query
/// m = H(u)^r. `cached_epoch` is the epoch of the client's copy of this
/// prefix's bucket; the server omits the bucket when that copy is still
/// current — the bucket has not changed since, under the same key, and
/// the epoch is not ahead of the server's.
struct QueryRequest {
  std::uint32_t prefix = 0;
  ec::RistrettoPoint::Encoding masked_query{};
  std::uint64_t cached_epoch = kNoEpoch;
  std::string api_key;  // empty when rate limiting is disabled
  /// Verifiable-OPRF upgrade: ask the server to prove psi = m^R against
  /// its published key commitment g^R (DLEQ). Turns the honest-but-
  /// curious evaluation assumption into a checked property.
  bool want_evaluation_proof = false;

  /// Serialized size in bytes (prefix packed into ceil(lambda/8) bytes).
  std::size_t wire_size(unsigned lambda) const {
    return (lambda + 7) / 8 + masked_query.size() + api_key.size();
  }
};

/// S -> C: the evaluated query psi = m^R and the bucket s_p of all
/// blinded blocklist entries sharing the prefix. Optional per-entry
/// encrypted metadata rides along, index-aligned with the bucket.
struct QueryResponse {
  ec::RistrettoPoint::Encoding evaluated{};
  std::uint64_t epoch = 0;
  bool bucket_omitted = false;
  std::vector<ec::RistrettoPoint::Encoding> bucket;
  std::vector<Bytes> metadata;  // empty, or one ciphertext per bucket entry
  /// Present when the request set want_evaluation_proof: DLEQ showing
  /// log_g(key_commitment) == log_m(evaluated).
  std::optional<nizk::DleqProof> evaluation_proof;

  std::size_t wire_size() const {
    std::size_t n = evaluated.size() + sizeof(epoch) + 1;
    n += bucket.size() * ec::RistrettoPoint::Encoding{}.size();
    for (const auto& m : metadata) n += m.size() + 2;
    if (evaluation_proof) n += nizk::DleqProof::kWireSize;
    return n;
  }
};

/// Client-side state kept between prepare() and finish().
// ct:key-holder — the blinding factor is what keeps the query private.
struct PendingQuery {
  Secret<ec::Scalar> blinding;      // r  ct:secret
  ec::RistrettoPoint half_blinded;  // H(u)^(r/2); doubled it is m
  /// SHA-256 of the entry, whole: the prefix is its top lambda bits, and
  /// it keys the entry's verdict in the bucket's memo.
  hash::Sha256::Digest entry_digest{};
  std::uint32_t prefix = 0;
  bool used_cache_hint = false;
  /// The cache epoch the request advertised (kNoEpoch when none): the
  /// only epoch an omitted bucket may be read from.
  std::uint64_t cached_epoch = kNoEpoch;
  /// The advertised epoch was the fed mirror's, for a prefix with no
  /// cached bucket known to match it: an omitted bucket is read from
  /// the mirror.
  bool mirror_hint = false;

  PendingQuery() = default;
  PendingQuery(const PendingQuery&) = default;
  PendingQuery(PendingQuery&&) = default;
  PendingQuery& operator=(const PendingQuery&) = default;
  PendingQuery& operator=(PendingQuery&&) = default;
  ~PendingQuery() { blinding.wipe(); }
};

}  // namespace cbl::oprf
