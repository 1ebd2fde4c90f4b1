#include "oprf/oracle.h"

#include <stdexcept>

#include "hash/sha512.h"

namespace cbl::oprf {

namespace {
constexpr std::string_view kFastDomain = "cbl/oprf/oracle/fast/v1";
constexpr std::string_view kSlowSalt = "cbl/oprf/oracle/argon2/v1";
}  // namespace

Oracle Oracle::fast() { return Oracle(Kind::kFast, {}); }

Oracle Oracle::slow(const hash::Argon2Params& params) {
  hash::Argon2Params p = params;
  p.tag_length = 64;  // the one-way map consumes 64 uniform bytes
  return Oracle(Kind::kSlow, p);
}

Oracle Oracle::slow_paper_defaults() {
  hash::Argon2Params p;
  p.memory_kib = 4096;  // 4 MiB
  p.time_cost = 3;
  p.parallelism = 1;  // "sequential Argon2id"
  return slow(p);
}

ec::RistrettoPoint Oracle::map_to_group(ByteView entry) const {
  if (kind_ == Kind::kFast) {
    return ec::RistrettoPoint::hash_to_group(entry, kFastDomain);
  }
  const Bytes tag = hash::argon2id(
      entry, to_bytes(kSlowSalt), params_);
  std::array<std::uint8_t, 64> uniform;
  std::copy(tag.begin(), tag.end(), uniform.begin());
  return ec::RistrettoPoint::from_uniform_bytes(uniform);
}

std::vector<ec::RistrettoPoint> Oracle::map_to_group_batch(
    std::span<const Bytes> entries) const {
  if (kind_ == Kind::kFast) {
    return ec::RistrettoPoint::batch_hash_to_group(entries, kFastDomain);
  }
  std::vector<ec::RistrettoPoint> out(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out[i] = map_to_group(entries[i]);
  }
  return out;
}

std::uint32_t Oracle::prefix(ByteView entry, unsigned lambda) {
  return prefix_of_digest(hash::Sha256::digest(entry), lambda);
}

std::uint32_t Oracle::prefix_of_digest(const hash::Sha256::Digest& digest,
                                       unsigned lambda) {
  if (lambda == 0 || lambda > 32) {
    throw std::invalid_argument("Oracle::prefix: lambda must be in [1,32]");
  }
  return load_be32(digest.data()) >> (32 - lambda);
}

}  // namespace cbl::oprf
