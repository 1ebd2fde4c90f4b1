// SHA-256 (FIPS 180-4), implemented from scratch. Streaming and one-shot
// interfaces. Used for bucket prefixes, transcript hashing, Merkle trees
// and address checksums (Base58Check double-SHA256). The compression
// function runs on the x86 SHA extensions when the CPU has them and in
// portable C++ otherwise, chosen once from CPUID; the digests are the
// same either way (see hash/sha256_kernels.h).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace cbl::hash {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() noexcept;

  Sha256& update(ByteView data) noexcept;
  Sha256& update(std::string_view data) noexcept {
    return update(ByteView(reinterpret_cast<const std::uint8_t*>(data.data()),
                           data.size()));
  }

  /// Finalizes and returns the digest. The object must not be reused after
  /// finalization without calling reset().
  Digest finalize() noexcept;

  void reset() noexcept;

  static Digest digest(ByteView data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }
  static Digest digest(std::string_view data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }

 private:
  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104).
Sha256::Digest hmac_sha256(ByteView key, ByteView message) noexcept;

/// HKDF-SHA256 expand+extract (RFC 5869). `out_len` <= 255*32.
Bytes hkdf_sha256(ByteView ikm, ByteView salt, ByteView info,
                  std::size_t out_len);

}  // namespace cbl::hash
