// Signed per-epoch deltas: the provider's statement of exactly which
// blinded entries entered and left which prefix buckets between two
// consecutive epochs, bound to the bucket-set Merkle roots before and
// after. A client that holds the base state folds the delta locally and
// must land on the signed post root — so a delta can neither be partial
// nor smuggle extra changes. Wire encodings are strictly canonical
// (sorted, deduplicated) so that parse -> re-encode is byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "ec/ristretto.h"
#include "nizk/signature.h"
#include "tlog/checkpoint.h"

namespace cbl::tlog {

inline constexpr std::string_view kDeltaSigDomain = "cbl/tlog/delta/v1";
inline constexpr std::string_view kDeltaDigestDomain =
    "cbl/tlog/delta-digest/v1";
inline constexpr std::uint8_t kDeltaVersion = 1;

/// Client-side mirror of the server's bucket table: prefix -> sorted
/// blinded entry encodings. All contents are public (declassified)
/// blinded points — see DESIGN.md.
using BucketMap =
    std::map<std::uint32_t, std::vector<ec::RistrettoPoint::Encoding>>;

/// The changes to one prefix bucket. `added` and `removed` are sorted
/// lexicographically and disjoint; an empty post-fold bucket disappears
/// from the map entirely (matching the server, which drops empty
/// buckets).
struct PrefixDelta {
  std::uint32_t prefix = 0;
  std::vector<ec::RistrettoPoint::Encoding> added;
  std::vector<ec::RistrettoPoint::Encoding> removed;
};

struct EpochDelta {
  std::uint64_t from_epoch = 0;
  std::uint64_t to_epoch = 0;
  Digest base_bucket_root{};  // bucket-set root the delta applies on
  Digest post_bucket_root{};  // bucket-set root after folding
  std::vector<PrefixDelta> prefixes;  // strictly increasing by prefix

  nizk::Signature signature;

  /// The bytes the provider signs (everything but the signature).
  Bytes signing_payload() const;
  /// Domain-separated digest of the signing payload; committed into the
  /// epoch's log record so the log pins WHICH delta bridges each epoch.
  Digest digest() const;
  Bytes to_bytes() const;
  // wire:untrusted fuzz=fuzz_tlog_delta
  [[nodiscard]] static std::optional<EpochDelta> from_bytes(ByteView data);
};

EpochDelta sign_delta(const nizk::SigningKey& key, EpochDelta delta,
                      Rng& rng);
bool verify_delta(const ec::RistrettoPoint& provider_pk,
                  const EpochDelta& delta);

/// Computes the canonical delta between two bucket snapshots (entries
/// sorted, empty buckets absent). Unsigned; sign with sign_delta.
EpochDelta diff_buckets(const BucketMap& base, const BucketMap& post);

/// Folds `delta` over `buckets` without modifying them and returns the
/// post-fold contents of every bucket the delta touches (an emptied
/// bucket maps to an empty vector), or nullopt on any mismatch (a
/// removal that is absent, an addition already present). Copies the
/// touched buckets only. Does NOT check roots or the signature —
/// callers verify those around the fold.
[[nodiscard]] std::optional<BucketMap> fold_touched(const BucketMap& buckets,
                                                    const EpochDelta& delta);

/// Swaps each bucket of `touched` into `buckets`; an empty vector stands
/// for an absent bucket on either side. Afterwards `touched` holds what
/// `buckets` held, so a second exchange undoes the first.
void exchange_buckets(BucketMap& buckets, BucketMap& touched);

/// fold_touched then exchange_buckets: on any mismatch `buckets` is left
/// untouched and false is returned.
[[nodiscard]] bool fold_delta(BucketMap& buckets, const EpochDelta& delta);

/// Full bucket-set download format (the non-delta baseline a fresh
/// client bootstraps from, and what bench_tlog compares deltas against).
Bytes encode_bucket_map(const BucketMap& buckets);
// wire:untrusted fuzz=fuzz_tlog_delta
[[nodiscard]] std::optional<BucketMap> parse_bucket_map(ByteView data);

}  // namespace cbl::tlog
