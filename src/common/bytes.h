// Byte-level utilities shared by every module: owned byte buffers, hex
// conversion, endian load/store, and constant-time comparison.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cbl {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Lowercase hex encoding of an arbitrary byte string.
std::string to_hex(ByteView data);

/// Parses lowercase/uppercase hex; returns nullopt on odd length or
/// non-hex characters.
// wire:untrusted fuzz=fuzz_ristretto_diff
[[nodiscard]] std::optional<Bytes> from_hex(std::string_view hex);

/// Converts a std::string payload into a byte buffer (no re-encoding).
Bytes to_bytes(std::string_view s);

/// Converts a byte buffer into a std::string (no re-encoding).
std::string to_string(ByteView data);

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteView src);

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | p[i];
  return v;
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

}  // namespace cbl
