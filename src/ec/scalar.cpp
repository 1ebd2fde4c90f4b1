#include "ec/scalar.h"

#include "common/ct.h"
#include "ec/modinv.h"

namespace cbl::ec {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// l = 2^252 + 27742317777372353535851937790883648493.
constexpr std::array<u64, 4> kL = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                                   0x0000000000000000ULL, 0x1000000000000000ULL};

// -l^{-1} mod 2^64, derived by Newton iteration at startup.
u64 mont_inv_factor() noexcept {
  u64 x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - kL[0] * x;  // x = l0^{-1} mod 2^64
  return ~x + 1;                                   // -x
}

// a + b with carry out; a - b with borrow out.
inline u64 adc(u64 a, u64 b, u64& carry) noexcept {
  const u128 t = static_cast<u128>(a) + b + carry;
  carry = static_cast<u64>(t >> 64);
  return static_cast<u64>(t);
}

inline u64 sbb(u64 a, u64 b, u64& borrow) noexcept {
  const u128 t = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<u64>(t >> 64) & 1;
  return static_cast<u64>(t);
}

// All-ones iff a >= l, computed without a branch: subtract l and look at
// the final borrow. Scalars are routinely secret (blinding factors, the
// OPRF mask, commitment randomness), so every reduction below is masked
// rather than conditional.
u64 geq_l_mask(const std::array<u64, 4>& a) noexcept {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    (void)sbb(a[static_cast<std::size_t>(i)], kL[static_cast<std::size_t>(i)],
              borrow);
  }
  return borrow - 1;  // borrow == 0 (a >= l) -> all-ones
}

// a -= l where mask is all-ones; no-op (same instruction trace) otherwise.
void csub_l(std::array<u64, 4>& a, u64 mask) noexcept {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    a[static_cast<std::size_t>(i)] =
        sbb(a[static_cast<std::size_t>(i)],
            kL[static_cast<std::size_t>(i)] & mask, borrow);
  }
}

// Montgomery product: a * b * 2^{-256} mod l (CIOS), a < 2^256, b < l.
std::array<u64, 4> mont_mul(const std::array<u64, 4>& a,
                            const std::array<u64, 4>& b) noexcept {
  static const u64 kInv = mont_inv_factor();
  u64 t[6] = {0, 0, 0, 0, 0, 0};

  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 prod = static_cast<u128>(a[static_cast<std::size_t>(i)]) *
                            b[static_cast<std::size_t>(j)] +
                        t[j] + carry;
      t[j] = static_cast<u64>(prod);
      carry = static_cast<u64>(prod >> 64);
    }
    u64 c2 = 0;
    t[4] = adc(t[4], carry, c2);
    t[5] = c2;

    const u64 m = t[0] * kInv;
    carry = 0;
    {
      const u128 prod = static_cast<u128>(m) * kL[0] + t[0];
      carry = static_cast<u64>(prod >> 64);
    }
    for (int j = 1; j < 4; ++j) {
      const u128 prod =
          static_cast<u128>(m) * kL[static_cast<std::size_t>(j)] + t[j] + carry;
      t[j - 1] = static_cast<u64>(prod);
      carry = static_cast<u64>(prod >> 64);
    }
    c2 = 0;
    t[3] = adc(t[4], carry, c2);
    t[4] = t[5] + c2;
    t[5] = 0;
  }

  std::array<u64, 4> r = {t[0], t[1], t[2], t[3]};
  // CIOS leaves the result < a*b/2^256 + l < 2l, so one masked
  // subtraction finishes it.
  csub_l(r, ct_mask_u64(t[4] != 0) | geq_l_mask(r));
  return r;
}

// 2^512 mod l, bootstrapped by repeated modular doubling.
std::array<u64, 4> pow2_mod_l(int exponent) noexcept {
  std::array<u64, 4> r = {1, 0, 0, 0};
  for (int i = 0; i < exponent; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) r[static_cast<std::size_t>(j)] =
        adc(r[static_cast<std::size_t>(j)], r[static_cast<std::size_t>(j)], carry);
    csub_l(r, ct_mask_u64(carry != 0) | geq_l_mask(r));
  }
  return r;
}

const std::array<u64, 4>& r2_mod_l() noexcept {
  static const std::array<u64, 4> v = pow2_mod_l(512);
  return v;
}

// 2^256 mod l = REDC(R^2): the Montgomery form of 1.
const std::array<u64, 4>& r_mod_l() noexcept {
  static const std::array<u64, 4> v = mont_mul({1, 0, 0, 0}, r2_mod_l());
  return v;
}

}  // namespace

Scalar Scalar::from_u64(u64 v) noexcept {
  Scalar s;
  s.limbs_ = {v, 0, 0, 0};
  return s;
}

const Scalar& Scalar::zero() noexcept {
  static const Scalar s;
  return s;
}

const Scalar& Scalar::one() noexcept {
  static const Scalar s = from_u64(1);
  return s;
}

std::optional<Scalar> Scalar::from_canonical_bytes(
    const std::array<std::uint8_t, 32>& bytes) noexcept {
  Scalar s;
  for (int i = 0; i < 4; ++i) {
    s.limbs_[static_cast<std::size_t>(i)] = load_le64(bytes.data() + 8 * i);
  }
  // ct:public — the canonicity verdict is part of the wire protocol.
  if (geq_l_mask(s.limbs_) != 0) return std::nullopt;
  return s;
}

Scalar Scalar::from_bytes_mod_order(
    const std::array<std::uint8_t, 32>& bytes) noexcept {
  std::array<std::uint8_t, 64> wide{};
  std::copy(bytes.begin(), bytes.end(), wide.begin());
  return from_bytes_wide(wide);
}

Scalar Scalar::from_bytes_wide(
    const std::array<std::uint8_t, 64>& bytes) noexcept {
  // x = lo + hi * 2^256 = REDC(lo * R) + REDC(hi * R^2) (mod l), R = 2^256.
  // mont_mul takes a first operand up to 2^256, so neither half needs
  // reducing first, and each product comes back below l. Straight-line:
  // the input is often secret (blinding-factor sampling).
  std::array<u64, 4> lo, hi;
  for (std::size_t i = 0; i < 4; ++i) {
    lo[i] = load_le64(bytes.data() + 8 * i);
    hi[i] = load_le64(bytes.data() + 32 + 8 * i);
  }
  Scalar a, b;
  a.limbs_ = mont_mul(lo, r_mod_l());
  b.limbs_ = mont_mul(hi, r2_mod_l());
  return a + b;
}

Scalar Scalar::random(Rng& rng) {
  std::array<std::uint8_t, 64> wide;
  rng.fill(wide.data(), wide.size());
  return from_bytes_wide(wide);
}

std::array<std::uint8_t, 32> Scalar::to_bytes() const noexcept {
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 4; ++i) {
    store_le64(out.data() + 8 * i, limbs_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Scalar Scalar::operator+(const Scalar& o) const noexcept {
  Scalar r;
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    r.limbs_[static_cast<std::size_t>(i)] =
        adc(limbs_[static_cast<std::size_t>(i)],
            o.limbs_[static_cast<std::size_t>(i)], carry);
  }
  csub_l(r.limbs_, ct_mask_u64(carry != 0) | geq_l_mask(r.limbs_));
  return r;
}

Scalar Scalar::operator-(const Scalar& o) const noexcept {
  Scalar r;
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    r.limbs_[static_cast<std::size_t>(i)] =
        sbb(limbs_[static_cast<std::size_t>(i)],
            o.limbs_[static_cast<std::size_t>(i)], borrow);
  }
  // Masked add-back of l when the subtraction borrowed.
  const u64 mask = ct_mask_u64(borrow != 0);
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    r.limbs_[static_cast<std::size_t>(i)] =
        adc(r.limbs_[static_cast<std::size_t>(i)],
            kL[static_cast<std::size_t>(i)] & mask, carry);
  }
  return r;
}

Scalar Scalar::operator-() const noexcept { return zero() - *this; }

Scalar Scalar::operator*(const Scalar& o) const noexcept {
  // ab = REDC(REDC(a*b) * R^2): two Montgomery products keep the external
  // representation plain.
  Scalar r;
  r.limbs_ = mont_mul(mont_mul(limbs_, o.limbs_), r2_mod_l());
  return r;
}

void Scalar::wipe() noexcept {
  secure_wipe(limbs_.data(), limbs_.size() * sizeof(u64));
}

Scalar Scalar::invert() const noexcept {
  static constexpr InvModulus kOrder = InvModulus::from_words(kL);
  Scalar result;
  result.limbs_ = mod_invert(limbs_, kOrder);
  return result;
}

}  // namespace cbl::ec
