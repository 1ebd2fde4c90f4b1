#include "common/rng.h"

#include <bit>
#include <cstring>

namespace cbl {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int n) noexcept {
  return std::rotl(x, n);
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) noexcept {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

}  // namespace

void chacha20_block(const std::array<std::uint8_t, 32>& key,
                    std::uint32_t counter,
                    const std::array<std::uint8_t, 12>& nonce,
                    std::uint8_t out[64]) {
  std::uint32_t state[16];
  state[0] = 0x61707865u;
  state[1] = 0x3320646eu;
  state[2] = 0x79622d32u;
  state[3] = 0x6b206574u;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);

  std::uint32_t w[16];
  std::memcpy(w, state, sizeof w);
  for (int round = 0; round < 10; ++round) {
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, w[i] + state[i]);
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  // Rejection sampling over the top of the 64-bit range to avoid modulo bias.
  const std::uint64_t limit = bound * ((~std::uint64_t{0}) / bound);
  for (;;) {
    const std::uint64_t v = next_u64();
    if (v < limit) return v % bound;
  }
}

ChaChaRng::ChaChaRng(const std::array<std::uint8_t, 32>& seed) noexcept
    : key_(seed) {}

ChaChaRng ChaChaRng::from_string_seed(std::string_view label) {
  // Cheap label → key expansion: absorb the label into the key by running
  // ChaCha20 with a zero key over the label blocks. Collision resistance is
  // irrelevant here; this only needs to map distinct labels to distinct
  // streams deterministically.
  std::array<std::uint8_t, 32> key{};
  std::size_t i = 0;
  for (char c : label) {
    key[i % 32] = static_cast<std::uint8_t>(key[i % 32] * 31 + static_cast<std::uint8_t>(c));
    ++i;
  }
  std::array<std::uint8_t, 12> nonce{};
  std::uint8_t block[64];
  chacha20_block(key, 0xfeedbeefu, nonce, block);
  std::memcpy(key.data(), block, 32);
  return ChaChaRng(key);
}

void ChaChaRng::refill() {
  chacha20_block(key_.expose_secret(), counter_++, nonce_,
                 buffer_.expose_secret_mut().data());
  avail_ = 64;
}

void ChaChaRng::fill(std::uint8_t* out, std::size_t len) {
  while (len > 0) {
    if (avail_ == 0) refill();
    const std::size_t take = std::min(len, avail_);
    // Handing keystream to the caller is this type's entire contract; the
    // caller's holder (blinding factor, mask, ...) carries its own taint.
    std::memcpy(out, buffer_.expose_secret().data() + (64 - avail_), take);
    avail_ -= take;
    out += take;
    len -= take;
  }
}

}  // namespace cbl
