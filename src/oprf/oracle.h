// The random oracle H : {0,1}* -> G of Fig. 2, in two flavours:
//  - fast:  SHA-512 + ristretto255 one-way map;
//  - slow:  Argon2id (memory-hard) + one-way map, the paper's
//           "inefficient oracle" that makes bogus queries costly (DoS
//           defence) while server responses stay cheap.
// The bucket prefix comes from SHA-256 of the raw entry so that entries
// distribute uniformly regardless of which oracle evaluates them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "ec/ristretto.h"
#include "hash/argon2.h"
#include "hash/sha256.h"

namespace cbl::oprf {

class Oracle {
 public:
  enum class Kind { kFast, kSlow };

  /// SHA-512-based oracle (Table I row "Sha256"-class setting).
  static Oracle fast();

  /// Argon2id-based slow oracle. The paper's evaluation uses
  /// memory = 4 MiB, time cost = 3, sequential (parallelism 1).
  static Oracle slow(const hash::Argon2Params& params);

  /// Paper defaults for the slow oracle.
  static Oracle slow_paper_defaults();

  /// H(entry): maps an address string to a group element.
  ec::RistrettoPoint map_to_group(ByteView entry) const;

  /// Batched H: element i equals map_to_group(entries[i]) exactly. The
  /// fast oracle routes through RistrettoPoint::batch_hash_to_group; the
  /// slow oracle is memory-hard by design, so it stays a per-entry loop.
  std::vector<ec::RistrettoPoint> map_to_group_batch(
      std::span<const Bytes> entries) const;

  /// The lambda-bit bucket prefix of an entry (lambda in [1, 32]).
  static std::uint32_t prefix(ByteView entry, unsigned lambda);
  /// The same prefix from the entry's SHA-256 digest, for a caller that
  /// keeps the digest.
  static std::uint32_t prefix_of_digest(const hash::Sha256::Digest& digest,
                                        unsigned lambda);

  Kind kind() const { return kind_; }
  const hash::Argon2Params& argon2_params() const { return params_; }

 private:
  explicit Oracle(Kind kind, const hash::Argon2Params& params)
      : kind_(kind), params_(params) {}

  Kind kind_;
  hash::Argon2Params params_;
};

}  // namespace cbl::oprf
