#include "ec/fe25519.h"

#include <vector>

#include "common/ct.h"
#include "ec/modinv.h"

namespace cbl::ec {

namespace {

using u64 = std::uint64_t;

// x^(2^k): k successive squarings.
Fe25519 pow2k(Fe25519 x, int k) noexcept {
  for (int i = 0; i < k; ++i) x = x.square();
  return x;
}

// x^(2^250 - 1), the bulk of pow_p58(), by the ref10 addition chain; names
// say which power of x each step holds, x_a_b = x^(2^a - 2^b). The
// schedule is fixed, so the trace is the same for every input.
Fe25519 pow22501(const Fe25519& x) noexcept {
  const Fe25519 x2 = x.square();
  const Fe25519 x9 = pow2k(x2, 2) * x;
  const Fe25519 x11 = x9 * x2;
  const Fe25519 x_5_0 = x11.square() * x9;
  const Fe25519 x_10_0 = pow2k(x_5_0, 5) * x_5_0;
  const Fe25519 x_20_0 = pow2k(x_10_0, 10) * x_10_0;
  const Fe25519 x_40_0 = pow2k(x_20_0, 20) * x_20_0;
  const Fe25519 x_50_0 = pow2k(x_40_0, 10) * x_10_0;
  const Fe25519 x_100_0 = pow2k(x_50_0, 50) * x_50_0;
  const Fe25519 x_200_0 = pow2k(x_100_0, 100) * x_100_0;
  return pow2k(x_200_0, 50) * x_50_0;
}

}  // namespace

Fe25519 Fe25519::from_u64(u64 v) noexcept {
  Fe25519 r;
  r.limbs_[0] = v & kMask51;
  r.limbs_[1] = v >> 51;
  return r;
}

const Fe25519& Fe25519::zero() noexcept {
  static const Fe25519 z;
  return z;
}

const Fe25519& Fe25519::one() noexcept {
  static const Fe25519 o = from_u64(1);
  return o;
}

Fe25519 Fe25519::from_bytes(const std::array<std::uint8_t, 32>& s) noexcept {
  Fe25519 r;
  r.limbs_[0] = cbl::load_le64(s.data()) & kMask51;
  r.limbs_[1] = (cbl::load_le64(s.data() + 6) >> 3) & kMask51;
  r.limbs_[2] = (cbl::load_le64(s.data() + 12) >> 6) & kMask51;
  r.limbs_[3] = (cbl::load_le64(s.data() + 19) >> 1) & kMask51;
  r.limbs_[4] = (cbl::load_le64(s.data() + 24) >> 12) & kMask51;
  return r;
}

std::array<std::uint8_t, 32> Fe25519::to_bytes() const noexcept {
  // A carry chain brings every limb below 2^51 (limb 1 to at most 2^51).
  Fe25519 t = *this;
  u64 c;
  c = t.limbs_[0] >> 51; t.limbs_[0] &= kMask51; t.limbs_[1] += c;
  c = t.limbs_[1] >> 51; t.limbs_[1] &= kMask51; t.limbs_[2] += c;
  c = t.limbs_[2] >> 51; t.limbs_[2] &= kMask51; t.limbs_[3] += c;
  c = t.limbs_[3] >> 51; t.limbs_[3] &= kMask51; t.limbs_[4] += c;
  c = t.limbs_[4] >> 51; t.limbs_[4] &= kMask51; t.limbs_[0] += 19 * c;
  c = t.limbs_[0] >> 51; t.limbs_[0] &= kMask51; t.limbs_[1] += c;

  // Compute the carry that a +19 would ripple to the top: q = 1 iff
  // t >= p, then add 19*q and drop bit 255 to reduce canonically.
  u64 q = (t.limbs_[0] + 19) >> 51;
  q = (t.limbs_[1] + q) >> 51;
  q = (t.limbs_[2] + q) >> 51;
  q = (t.limbs_[3] + q) >> 51;
  q = (t.limbs_[4] + q) >> 51;

  t.limbs_[0] += 19 * q;
  c = t.limbs_[0] >> 51; t.limbs_[0] &= kMask51; t.limbs_[1] += c;
  c = t.limbs_[1] >> 51; t.limbs_[1] &= kMask51; t.limbs_[2] += c;
  c = t.limbs_[2] >> 51; t.limbs_[2] &= kMask51; t.limbs_[3] += c;
  c = t.limbs_[3] >> 51; t.limbs_[3] &= kMask51; t.limbs_[4] += c;
  t.limbs_[4] &= kMask51;

  std::array<std::uint8_t, 32> out{};
  u64 words[4];
  words[0] = t.limbs_[0] | t.limbs_[1] << 51;
  words[1] = t.limbs_[1] >> 13 | t.limbs_[2] << 38;
  words[2] = t.limbs_[2] >> 26 | t.limbs_[3] << 25;
  words[3] = t.limbs_[3] >> 39 | t.limbs_[4] << 12;
  for (int i = 0; i < 4; ++i) cbl::store_le64(out.data() + 8 * i, words[i]);
  return out;
}

Fe25519 Fe25519::invert() const noexcept {
  // p = 2^255 - 19 as four little-endian words.
  static constexpr InvModulus kP = InvModulus::from_words(
      {~u64{0} - 18, ~u64{0}, ~u64{0}, ~u64{0} >> 1});
  std::array<std::uint8_t, 32> bytes = to_bytes();
  std::array<u64, 4> words;
  for (std::size_t i = 0; i < 4; ++i) {
    words[i] = load_le64(bytes.data() + 8 * i);
  }
  words = mod_invert(words, kP);
  for (std::size_t i = 0; i < 4; ++i) {
    store_le64(bytes.data() + 8 * i, words[i]);
  }
  const Fe25519 inv = from_bytes(bytes);
  secure_wipe(bytes);
  secure_wipe(words);
  return inv;
}

void Fe25519::batch_invert(std::span<Fe25519> elems) noexcept {
  const std::size_t n = elems.size();
  if (n == 0) return;  // ct:public — batch size is protocol-visible
  if (n == 1) {
    elems[0] = elems[0].invert();
    return;
  }

  // Montgomery's trick. prefix[i] holds the product of the first i+1
  // inputs with every zero replaced by 1 (cmov, not a branch), so a
  // single zero cannot poison the whole chain. The backward pass peels
  // one factor per step:  elems[i] <- suffix_inv * prefix[i-1], then
  // suffix_inv *= term[i].
  std::vector<Fe25519> prefix(n);
  std::vector<std::uint64_t> zmask(n);
  Fe25519 acc = one();
  for (std::size_t i = 0; i < n; ++i) {
    zmask[i] = ct_mask_u64(elems[i].is_zero());
    elems[i].cmov(one(), zmask[i]);
    acc = acc * elems[i];
    prefix[i] = acc;
  }

  Fe25519 suffix_inv = acc.invert();
  for (std::size_t i = n - 1; i > 0; --i) {
    const Fe25519 term = elems[i];
    elems[i] = suffix_inv * prefix[i - 1];
    elems[i].cmov(zero(), zmask[i]);
    suffix_inv = suffix_inv * term;
  }
  elems[0] = suffix_inv;  // = term[0]^-1 after all other factors peeled
  elems[0].cmov(zero(), zmask[0]);

  // The prefix products are entangled with every input; if any input was
  // secret, so are they.
  for (auto& p : prefix) p.wipe();
  suffix_inv.wipe();
  acc.wipe();
}

Fe25519 Fe25519::pow_p58() const noexcept {
  // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  return pow2k(pow22501(*this), 2) * *this;
}

bool Fe25519::is_negative() const noexcept {
  return (to_bytes()[0] & 1) != 0;
}

bool Fe25519::is_zero() const noexcept {
  const auto b = to_bytes();
  std::uint8_t acc = 0;
  for (auto v : b) acc |= v;
  return acc == 0;
}

bool Fe25519::operator==(const Fe25519& o) const noexcept {
  // Byte-level constant-time compare of the canonical encodings (the raw
  // std::array operator== lowers to an early-exit memcmp).
  return ct_equal(to_bytes(), o.to_bytes());
}

Fe25519 Fe25519::abs() const noexcept {
  // Branch-free |x|: always compute the negation, then select on the sign.
  return select(is_negative(), -*this, *this);
}

void Fe25519::wipe() noexcept {
  secure_wipe(limbs_, sizeof limbs_);
}

const Fe25519& Fe25519::sqrt_m1() noexcept {
  // sqrt(-1) = 2^((p-1)/4), and (p-1)/4 = 2 * (p-5)/8 + 1; normalize to
  // the non-negative root, matching the ristretto255 specification
  // constant.
  static const Fe25519 v = [] {
    const Fe25519 two = from_u64(2);
    return (two.pow_p58().square() * two).abs();
  }();
  return v;
}

const Fe25519& Fe25519::edwards_d() noexcept {
  static const Fe25519 v = -(from_u64(121665) * from_u64(121666).invert());
  return v;
}

SqrtRatioChain sqrt_ratio_m1_start(const Fe25519& u,
                                   const Fe25519& v) noexcept {
  const Fe25519 v3 = v.square() * v;
  const Fe25519 v7 = v3.square() * v;
  return SqrtRatioChain{u * v3, u * v7};
}

SqrtRatioResult sqrt_ratio_m1_finish(const Fe25519& u, const Fe25519& v,
                                     const Fe25519& uv3,
                                     const Fe25519& uv7_p58) noexcept {
  Fe25519 r = uv3 * uv7_p58;
  const Fe25519 check = v * r.square();

  const Fe25519 neg_u = -u;
  const bool correct_sign = check == u;
  const bool flipped_sign = check == neg_u;
  const bool flipped_sign_i = check == neg_u * Fe25519::sqrt_m1();

  // The inputs may derive from secrets (Elligator over a hashed entry,
  // decode of a masked encoding), so the sign fix is a cmov — the product
  // is always computed — and the flags combine with `|`, never the
  // short-circuiting `||`.
  const bool flipped = flipped_sign | flipped_sign_i;
  r = Fe25519::select(flipped, r * Fe25519::sqrt_m1(), r);
  const bool was_square = correct_sign | flipped_sign;
  return SqrtRatioResult{was_square, r.abs()};
}

SqrtRatioResult sqrt_ratio_m1(const Fe25519& u, const Fe25519& v) noexcept {
  const SqrtRatioChain c = sqrt_ratio_m1_start(u, v);
  return sqrt_ratio_m1_finish(u, v, c.uv3, c.uv7.pow_p58());
}

}  // namespace cbl::ec
