#include "hash/sha256.h"

#include <bit>
#include <cstring>

#include "hash/sha256_kernels.h"

#if CBL_SHA256_SHANI
#include <immintrin.h>
#endif

namespace cbl::hash {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

// Constant-initialised to the portable body, so a Sha256 run by another
// translation unit's static initialiser before this one's still hashes
// correctly; switched to SHA-NI once, during static initialisation.
constinit sha256_kernel::CompressFn g_compress =
    sha256_kernel::compress_portable;
[[maybe_unused]] const bool g_compress_selected = [] {
#if CBL_SHA256_SHANI
  if (sha256_kernel::shani_supported()) {
    g_compress = sha256_kernel::compress_shani;
  }
#endif
  return true;
}();

}  // namespace

namespace sha256_kernel {

void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n) noexcept {
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if CBL_SHA256_SHANI

// The SHA-NI body keeps the state as two vectors, ABEF and CDGH (high
// lane first), the layout sha256rnds2 works on. Each group of four
// rounds adds four message words to four round constants; sha256rnds2
// runs two rounds on the low half, then two on the high half. From the
// fifth group on, sha256msg1/msg2 extend the message schedule four words
// at a time. The instructions' latency does not depend on the data, so
// this body is as constant-time as the portable one.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t state[8], const std::uint8_t* blocks,
    std::size_t n) noexcept {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);      // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);    // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        msg[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * i)),
            bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], t = 4i..4i+3.
        __m128i next = _mm_sha256msg1_epu32(msg[i & 3], msg[(i + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(msg[(i + 3) & 3], msg[(i + 2) & 3], 4));
        msg[i & 3] = _mm_sha256msg2_epu32(next, msg[(i + 3) & 3]);
      }
      __m128i wk = _mm_add_epi32(
          msg[i & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);     // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);    // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));     // HGFE
}

bool shani_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

#else

bool shani_supported() noexcept { return false; }

#endif

const char* active_name() noexcept {
  return g_compress == compress_portable ? "portable" : "sha-ni";
}

}  // namespace sha256_kernel

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256& Sha256::update(ByteView data) noexcept {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == 64) {
      g_compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= 64) {
    g_compress(state_, p, n / 64);
    p += n - n % 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
  return *this;
}

Sha256::Digest Sha256::finalize() noexcept {
  // 0x80, zeros up to 8 bytes short of a block boundary, then the
  // big-endian bit length: one block, or two when fewer than 9 bytes of
  // the current one are free.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    g_compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  store_be64(buffer_ + 56, total_len_ * 8);
  g_compress(state_, buffer_, 1);

  Digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha256::Digest hmac_sha256(ByteView key, ByteView message) noexcept {
  std::uint8_t k[64] = {};
  if (key.size() > 64) {
    const auto d = Sha256::digest(key);
    std::memcpy(k, d.data(), d.size());
  } else {
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ByteView(ipad, 64)).update(message);
  const auto inner_digest = inner.finalize();

  Sha256 outer;
  outer.update(ByteView(opad, 64))
      .update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer.finalize();
}

Bytes hkdf_sha256(ByteView ikm, ByteView salt, ByteView info,
                  std::size_t out_len) {
  const auto prk = hmac_sha256(salt, ikm);
  Bytes out;
  out.reserve(out_len);
  Bytes t;
  std::uint8_t counter = 1;
  while (out.size() < out_len) {
    Bytes block = t;
    append(block, info);
    block.push_back(counter++);
    const auto d = hmac_sha256(ByteView(prk.data(), prk.size()),
                               ByteView(block.data(), block.size()));
    t.assign(d.begin(), d.end());
    const std::size_t take = std::min<std::size_t>(32, out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<long>(take));
  }
  return out;
}

}  // namespace cbl::hash
