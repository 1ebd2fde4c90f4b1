// Cross-validation of the optimized limb arithmetic (fe25519 5x51-bit,
// scalar 4x64-bit Montgomery) against an independent, obviously-correct
// reference: a byte-level bignum with shift-subtract modular reduction.
// Random sweeps plus adversarial edge values around the moduli hunt for
// carry/borrow bugs the RFC vectors might miss.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/ct.h"
#include "common/rng.h"
#include "ec/fe25519.h"
#include "ec/scalar.h"

namespace cbl::ec {
namespace {

using cbl::ChaChaRng;

// ----------------------------------------------------------------- RefInt
// Arbitrary-size unsigned integer, little-endian 32-bit words. Slow and
// simple on purpose.
class RefInt {
 public:
  RefInt() = default;

  static RefInt from_le_bytes(ByteView bytes) {
    RefInt r;
    for (std::size_t i = 0; i < bytes.size(); i += 4) {
      std::uint32_t word = 0;
      for (std::size_t j = 0; j < 4 && i + j < bytes.size(); ++j) {
        word |= static_cast<std::uint32_t>(bytes[i + j]) << (8 * j);
      }
      r.words_.push_back(word);
    }
    r.trim();
    return r;
  }

  static RefInt from_u64(std::uint64_t v) {
    RefInt r;
    r.words_ = {static_cast<std::uint32_t>(v),
                static_cast<std::uint32_t>(v >> 32)};
    r.trim();
    return r;
  }

  std::array<std::uint8_t, 32> to_le_bytes32() const {
    std::array<std::uint8_t, 32> out{};
    for (std::size_t i = 0; i < words_.size() && i < 8; ++i) {
      for (int j = 0; j < 4; ++j) {
        out[4 * i + static_cast<std::size_t>(j)] =
            static_cast<std::uint8_t>(words_[i] >> (8 * j));
      }
    }
    return out;
  }

  int compare(const RefInt& o) const {
    if (words_.size() != o.words_.size()) {
      return words_.size() < o.words_.size() ? -1 : 1;
    }
    for (std::size_t i = words_.size(); i-- > 0;) {
      if (words_[i] != o.words_[i]) return words_[i] < o.words_[i] ? -1 : 1;
    }
    return 0;
  }
  bool operator==(const RefInt& o) const { return compare(o) == 0; }

  RefInt add(const RefInt& o) const {
    RefInt r;
    std::uint64_t carry = 0;
    const std::size_t n = std::max(words_.size(), o.words_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t sum = carry + word(i) + o.word(i);
      r.words_.push_back(static_cast<std::uint32_t>(sum));
      carry = sum >> 32;
    }
    if (carry) r.words_.push_back(static_cast<std::uint32_t>(carry));
    r.trim();
    return r;
  }

  /// this - o; requires this >= o.
  RefInt sub(const RefInt& o) const {
    RefInt r;
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::int64_t diff = static_cast<std::int64_t>(word(i)) -
                          static_cast<std::int64_t>(o.word(i)) - borrow;
      borrow = 0;
      if (diff < 0) {
        diff += std::int64_t{1} << 32;
        borrow = 1;
      }
      r.words_.push_back(static_cast<std::uint32_t>(diff));
    }
    EXPECT_EQ(borrow, 0) << "RefInt::sub underflow";
    r.trim();
    return r;
  }

  RefInt mul(const RefInt& o) const {
    RefInt r;
    r.words_.assign(words_.size() + o.words_.size(), 0);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < o.words_.size(); ++j) {
        const std::uint64_t t =
            static_cast<std::uint64_t>(words_[i]) * o.words_[j] +
            r.words_[i + j] + carry;
        r.words_[i + j] = static_cast<std::uint32_t>(t);
        carry = t >> 32;
      }
      r.words_[i + o.words_.size()] += static_cast<std::uint32_t>(carry);
    }
    r.trim();
    return r;
  }

  RefInt shifted_left_bits(std::size_t bits) const {
    RefInt r = *this;
    for (std::size_t b = 0; b < bits; ++b) r = r.add(r);
    return r;
  }

  /// this mod m, via binary shift-subtract long division.
  RefInt mod(const RefInt& m) const {
    EXPECT_FALSE(m.words_.empty()) << "mod by zero";
    RefInt r;  // remainder accumulates bit by bit, msb first
    for (std::size_t i = words_.size(); i-- > 0;) {
      for (int bit = 31; bit >= 0; --bit) {
        r = r.add(r);
        if ((words_[i] >> bit) & 1) r = r.add(RefInt::from_u64(1));
        if (r.compare(m) >= 0) r = r.sub(m);
      }
    }
    return r;
  }

 private:
  std::uint32_t word(std::size_t i) const {
    return i < words_.size() ? words_[i] : 0;
  }
  void trim() {
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
  }

  std::vector<std::uint32_t> words_;  // little endian, trimmed
};

RefInt ref_p() {
  // 2^255 - 19.
  return RefInt::from_u64(1).shifted_left_bits(255).sub(RefInt::from_u64(19));
}

RefInt ref_l() {
  // 2^252 + 27742317777372353535851937790883648493.
  const auto c = RefInt::from_le_bytes(
      from_hex("edd3f55c1a631258d69cf7a2def9de14").value());
  return RefInt::from_u64(1).shifted_left_bits(252).add(c);
}

// base^exp mod m by square-and-multiply over exp's 256 bits, msb first —
// independent of the addition chains and Montgomery ladders under test.
RefInt ref_pow(const RefInt& base, const RefInt& exp, const RefInt& m) {
  const auto e = exp.to_le_bytes32();
  RefInt r = RefInt::from_u64(1);
  for (std::size_t bit = 256; bit-- > 0;) {
    r = r.mul(r).mod(m);
    if ((e[bit / 8] >> (bit % 8)) & 1) r = r.mul(base).mod(m);
  }
  return r;
}

// Edge-value byte patterns around the moduli and word boundaries.
std::vector<std::array<std::uint8_t, 32>> edge_values() {
  std::vector<std::array<std::uint8_t, 32>> out;
  auto push_hex = [&](const char* hex) {
    const auto bytes = from_hex(hex).value();
    std::array<std::uint8_t, 32> a{};
    std::copy(bytes.begin(), bytes.end(), a.begin());
    out.push_back(a);
  };
  push_hex("0000000000000000000000000000000000000000000000000000000000000000");
  push_hex("0100000000000000000000000000000000000000000000000000000000000000");
  push_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");  // p-1
  push_hex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");  // p
  push_hex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");  // p+1
  push_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");  // 2^255-1
  push_hex("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");  // l-1
  push_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");  // l
  push_hex("eed3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");  // l+1
  push_hex("ffffffff000000000000000000000000ffffffff000000000000000000000000");
  push_hex("0000000000000000ffffffffffffffff0000000000000000ffffffffffffffff");
  return out;
}

// ----------------------------------------------------------------- fe25519

class FeReferenceTest : public ::testing::Test {
 protected:
  ChaChaRng rng_ = ChaChaRng::from_string_seed("fe-ref");

  static Fe25519 fe_from(const std::array<std::uint8_t, 32>& bytes) {
    auto masked = bytes;
    masked[31] &= 0x7f;
    return Fe25519::from_bytes(masked);
  }

  static RefInt ref_from(const std::array<std::uint8_t, 32>& bytes) {
    auto masked = bytes;
    masked[31] &= 0x7f;
    return RefInt::from_le_bytes(masked).mod(ref_p());
  }

  // The pairwise sums fe_from(a) + fe_from(b) of the edge values, left
  // un-normalised: their limbs are the largest a weakly reduced element
  // carries, the inputs the group formulas feed back into mul/add/sub.
  struct EdgeSum {
    Fe25519 fe;
    RefInt ref;
  };
  static std::vector<EdgeSum> edge_sums() {
    const auto edges = edge_values();
    const auto p = ref_p();
    std::vector<EdgeSum> out;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      for (std::size_t j = i; j < edges.size(); ++j) {
        out.push_back({fe_from(edges[i]) + fe_from(edges[j]),
                       ref_from(edges[i]).add(ref_from(edges[j])).mod(p)});
      }
    }
    return out;
  }
};

TEST_F(FeReferenceTest, MulMatchesReferenceOnRandoms) {
  for (int i = 0; i < 60; ++i) {
    std::array<std::uint8_t, 32> a_bytes, b_bytes;
    rng_.fill(a_bytes.data(), 32);
    rng_.fill(b_bytes.data(), 32);
    const auto expected =
        ref_from(a_bytes).mul(ref_from(b_bytes)).mod(ref_p()).to_le_bytes32();
    EXPECT_EQ((fe_from(a_bytes) * fe_from(b_bytes)).to_bytes(), expected)
        << "a=" << to_hex(ByteView(a_bytes)) << " b=" << to_hex(ByteView(b_bytes));
  }
}

TEST_F(FeReferenceTest, AddSubMatchReferenceOnEdges) {
  const auto edges = edge_values();
  const auto p = ref_p();
  for (const auto& a : edges) {
    for (const auto& b : edges) {
      const RefInt ra = ref_from(a), rb = ref_from(b);
      EXPECT_EQ((fe_from(a) + fe_from(b)).to_bytes(),
                ra.add(rb).mod(p).to_le_bytes32());
      // a - b mod p == a + (p - b) mod p.
      EXPECT_EQ((fe_from(a) - fe_from(b)).to_bytes(),
                ra.add(p.sub(rb)).mod(p).to_le_bytes32());
    }
  }
  const auto sums = edge_sums();
  for (const auto& a : sums) {
    EXPECT_EQ((-a.fe).to_bytes(), p.sub(a.ref).mod(p).to_le_bytes32());
    for (const auto& b : sums) {
      EXPECT_EQ((a.fe + b.fe).to_bytes(),
                a.ref.add(b.ref).mod(p).to_le_bytes32());
      EXPECT_EQ((a.fe - b.fe).to_bytes(),
                a.ref.add(p.sub(b.ref)).mod(p).to_le_bytes32());
    }
  }
}

TEST_F(FeReferenceTest, MulMatchesReferenceOnEdgePairs) {
  const auto edges = edge_values();
  const auto p = ref_p();
  for (const auto& a : edges) {
    for (const auto& b : edges) {
      EXPECT_EQ((fe_from(a) * fe_from(b)).to_bytes(),
                ref_from(a).mul(ref_from(b)).mod(p).to_le_bytes32());
    }
  }
  // select and cmov move whole limbs, so each picked operand must keep
  // working as that operand in the product.
  const auto sums = edge_sums();
  for (const auto& a : sums) {
    for (const auto& b : sums) {
      const auto ab = a.ref.mul(b.ref).mod(p).to_le_bytes32();
      EXPECT_EQ((a.fe * b.fe).to_bytes(), ab);
      EXPECT_EQ((Fe25519::select(true, a.fe, b.fe) * b.fe).to_bytes(), ab);
      EXPECT_EQ((Fe25519::select(false, a.fe, b.fe) * a.fe).to_bytes(), ab);
      Fe25519 kept = b.fe;
      kept.cmov(a.fe, ct_mask_u64(false));
      EXPECT_EQ((kept * a.fe).to_bytes(), ab);
      Fe25519 moved = b.fe;
      moved.cmov(a.fe, ct_mask_u64(true));
      EXPECT_EQ((moved * b.fe).to_bytes(), ab);
    }
  }
}

// square() has its own column formulas (doubled cross terms, 19 folded
// into a3 and a4), so it is checked against the product and the
// reference on every edge value, every edge sum and random elements.
TEST_F(FeReferenceTest, SquareMatchesProductAndReference) {
  const auto p = ref_p();
  std::vector<EdgeSum> inputs = edge_sums();
  for (const auto& bytes : edge_values()) {
    inputs.push_back({fe_from(bytes), ref_from(bytes)});
  }
  for (int i = 0; i < 20; ++i) {
    std::array<std::uint8_t, 32> bytes;
    rng_.fill(bytes.data(), 32);
    inputs.push_back({fe_from(bytes), ref_from(bytes)});
  }
  for (const auto& x : inputs) {
    const auto expected = x.ref.mul(x.ref).mod(p).to_le_bytes32();
    EXPECT_EQ(x.fe.square().to_bytes(), expected);
    EXPECT_EQ((x.fe * x.fe).to_bytes(), expected);
    EXPECT_EQ(x.fe.square(), x.fe * x.fe);
  }
}

TEST_F(FeReferenceTest, CanonicalEncodingIsBelowP) {
  const auto p = ref_p();
  for (int i = 0; i < 20; ++i) {
    std::array<std::uint8_t, 32> bytes;
    rng_.fill(bytes.data(), 32);
    const auto canonical = fe_from(bytes).to_bytes();
    EXPECT_LT(RefInt::from_le_bytes(canonical).compare(p), 0);
  }
}

// invert() and pow_p58() share one addition chain; both are checked on
// every edge value (0, 1, p-1, and the non-canonical p, p+1, 2^255-1 that
// from_bytes keeps >= p) plus random elements.
TEST_F(FeReferenceTest, InvertAndPowP58MatchReferenceExponentiation) {
  const auto p = ref_p();
  const auto p_minus_2 = p.sub(RefInt::from_u64(2));
  const auto p58 = RefInt::from_u64(1).shifted_left_bits(252).sub(
      RefInt::from_u64(3));  // (p - 5) / 8 = 2^252 - 3
  auto inputs = edge_values();
  for (int i = 0; i < 4; ++i) {
    std::array<std::uint8_t, 32> bytes;
    rng_.fill(bytes.data(), 32);
    inputs.push_back(bytes);
  }
  for (const auto& bytes : inputs) {
    const Fe25519 x = fe_from(bytes);
    const RefInt rx = ref_from(bytes);
    EXPECT_EQ(x.invert().to_bytes(), ref_pow(rx, p_minus_2, p).to_le_bytes32())
        << "x=" << to_hex(ByteView(bytes));
    EXPECT_EQ(x.pow_p58().to_bytes(), ref_pow(rx, p58, p).to_le_bytes32())
        << "x=" << to_hex(ByteView(bytes));
  }
}

// operator+ carries nothing, so a sum of up to four reduced values (limbs
// < 2^52) is a valid operand (limbs < 2^54). The summands are the edge
// sums, reduced values whose largest, top + top for top = 2^255 - 1, has
// every limb at 2^52 - 2; four copies of it put every limb at 2^54 - 8,
// the edge of the bound. Every operand goes through each consumer of the
// bound: *, square(), - (as minuend and subtrahend), to_bytes(), == and
// is_negative().
TEST_F(FeReferenceTest, LazySumsOfUpToFourReducedValuesAreValidOperands) {
  const auto p = ref_p();
  std::array<std::uint8_t, 32> top_bytes;
  top_bytes.fill(0xff);
  const Fe25519 top = fe_from(top_bytes);
  const EdgeSum max_limbs{
      top + top, ref_from(top_bytes).add(ref_from(top_bytes)).mod(p)};

  std::vector<EdgeSum> summands = {max_limbs};
  const auto sums = edge_sums();
  summands.insert(summands.end(), sums.begin(), sums.end());

  for (std::size_t count = 2; count <= 4; ++count) {
    std::vector<EdgeSum> operands;
    for (std::size_t i = 0; i < summands.size(); ++i) {
      // Operand 0 is `count` copies of max_limbs; the rest mix edge sums.
      EdgeSum x = summands[i];
      for (std::size_t k = 1; k < count; ++k) {
        const EdgeSum& y = summands[i == 0 ? 0 : (i + 7 * k) % summands.size()];
        x = {x.fe + y.fe, x.ref.add(y.ref).mod(p)};
      }
      operands.push_back(x);
    }
    for (std::size_t i = 0; i < operands.size(); ++i) {
      const EdgeSum& a = operands[i];
      const EdgeSum& b = operands[(i + 1) % operands.size()];
      const auto a_bytes = a.ref.to_le_bytes32();
      SCOPED_TRACE("summands=" + std::to_string(count) +
                   " a=" + to_hex(ByteView(a_bytes)));
      EXPECT_EQ(a.fe.to_bytes(), a_bytes);
      EXPECT_TRUE(a.fe == Fe25519::from_bytes(a_bytes));
      EXPECT_EQ(a.fe.is_negative(), (a_bytes[0] & 1) != 0);
      EXPECT_EQ((a.fe * b.fe).to_bytes(),
                a.ref.mul(b.ref).mod(p).to_le_bytes32());
      EXPECT_EQ(a.fe.square().to_bytes(),
                a.ref.mul(a.ref).mod(p).to_le_bytes32());
      EXPECT_EQ((a.fe - b.fe).to_bytes(),
                a.ref.add(p.sub(b.ref)).mod(p).to_le_bytes32());
      EXPECT_EQ((b.fe - a.fe).to_bytes(),
                b.ref.add(p.sub(a.ref)).mod(p).to_le_bytes32());
      EXPECT_EQ((-a.fe).to_bytes(), p.sub(a.ref).mod(p).to_le_bytes32());
    }
  }
}

// x^e by left-to-right square-and-multiply over the production multiply:
// the Fermat inversion that the safegcd kernel replaced, kept only here,
// as the reference the kernel is checked against for both moduli.
template <typename T>
T fermat_pow(const T& x, const std::array<std::uint8_t, 32>& e) {
  T r = T::one();
  for (std::size_t bit = 256; bit-- > 0;) {
    r = r * r;
    if ((e[bit / 8] >> (bit % 8)) & 1) r = r * x;
  }
  return r;
}

// The inversion inputs named by value, plus 1,000 random ones per modulus
// (appended by each test). Random inputs bring f to +-1 (the gcd) within
// ~525 of the kernel's 590 divsteps, so they would not notice a round
// too few; the last value needs 533 divsteps mod p (found by a
// hill-climbing search), more than 9 rounds of 59 provide.
std::vector<std::array<std::uint8_t, 32>> inversion_inputs() {
  const RefInt one = RefInt::from_u64(1), two = RefInt::from_u64(2);
  const RefInt p = ref_p(), l = ref_l();
  std::vector<std::array<std::uint8_t, 32>> out;
  for (const RefInt& v :
       {RefInt(), one, two, p.sub(one), p.sub(two), l.sub(one), l.sub(two),
        one.shifted_left_bits(252),
        one.shifted_left_bits(255).sub(RefInt::from_u64(20)),
        RefInt::from_le_bytes(from_hex("7b00139376490439dd493c8ecab5b51f"
                                       "0c85d25c153e2f2ce314a437ea7c8f60")
                                  .value())}) {
    out.push_back(v.to_le_bytes32());
  }
  return out;
}

TEST_F(FeReferenceTest, InvertMatchesFermatOnNamedAndRandomInputs) {
  const auto p_minus_2 = ref_p().sub(RefInt::from_u64(2)).to_le_bytes32();
  auto inputs = inversion_inputs();
  for (int i = 0; i < 1000; ++i) {
    std::array<std::uint8_t, 32> bytes;
    rng_.fill(bytes.data(), 32);
    inputs.push_back(bytes);
  }
  for (const auto& bytes : inputs) {
    const Fe25519 x = fe_from(bytes);
    const Fe25519 inv = x.invert();
    EXPECT_EQ(inv.to_bytes(), fermat_pow(x, p_minus_2).to_bytes())
        << "x=" << to_hex(ByteView(bytes));
    EXPECT_TRUE(x.is_zero() ? inv.is_zero() : x * inv == Fe25519::one())
        << "x=" << to_hex(ByteView(bytes));
  }
  EXPECT_TRUE(Fe25519::zero().invert().is_zero());
}

// ------------------------------------------------------------------ Scalar

class ScalarReferenceTest : public ::testing::Test {
 protected:
  ChaChaRng rng_ = ChaChaRng::from_string_seed("sc-ref");
};

TEST_F(ScalarReferenceTest, MulMatchesReferenceOnRandoms) {
  const auto l = ref_l();
  for (int i = 0; i < 60; ++i) {
    std::array<std::uint8_t, 32> a_bytes, b_bytes;
    rng_.fill(a_bytes.data(), 32);
    rng_.fill(b_bytes.data(), 32);
    const Scalar a = Scalar::from_bytes_mod_order(a_bytes);
    const Scalar b = Scalar::from_bytes_mod_order(b_bytes);
    const auto expected = RefInt::from_le_bytes(a_bytes)
                              .mod(l)
                              .mul(RefInt::from_le_bytes(b_bytes).mod(l))
                              .mod(l)
                              .to_le_bytes32();
    EXPECT_EQ((a * b).to_bytes(), expected);
  }
}

TEST_F(ScalarReferenceTest, AddSubMatchReferenceOnEdges) {
  const auto l = ref_l();
  for (const auto& a_bytes : edge_values()) {
    for (const auto& b_bytes : edge_values()) {
      const Scalar a = Scalar::from_bytes_mod_order(a_bytes);
      const Scalar b = Scalar::from_bytes_mod_order(b_bytes);
      const RefInt ra = RefInt::from_le_bytes(a_bytes).mod(l);
      const RefInt rb = RefInt::from_le_bytes(b_bytes).mod(l);
      EXPECT_EQ((a + b).to_bytes(), ra.add(rb).mod(l).to_le_bytes32());
      EXPECT_EQ((a - b).to_bytes(),
                ra.add(l.sub(rb)).mod(l).to_le_bytes32());
    }
  }
}

TEST_F(ScalarReferenceTest, WideReductionMatchesReference) {
  const auto l = ref_l();
  for (int i = 0; i < 40; ++i) {
    std::array<std::uint8_t, 64> wide;
    rng_.fill(wide.data(), 64);
    const auto expected =
        RefInt::from_le_bytes(wide).mod(l).to_le_bytes32();
    EXPECT_EQ(Scalar::from_bytes_wide(wide).to_bytes(), expected);
  }
  // All-ones wide input (the largest possible).
  std::array<std::uint8_t, 64> ones;
  ones.fill(0xff);
  EXPECT_EQ(Scalar::from_bytes_wide(ones).to_bytes(),
            RefInt::from_le_bytes(ones).mod(l).to_le_bytes32());
}

// The wide reduction splits its input into two 256-bit halves, each
// reduced by its own Montgomery product; every pairing of the values
// below puts lo >= l and hi >= l through it, alone and together.
TEST_F(ScalarReferenceTest, WideReductionMatchesReferenceOnCrossedHalves) {
  const auto l = ref_l();
  const RefInt one = RefInt::from_u64(1);
  const RefInt two_256 = one.shifted_left_bits(256);
  const std::vector<RefInt> halves = {
      RefInt(), one, l.sub(one), l, l.add(one), one.shifted_left_bits(252),
      two_256.sub(one)};
  for (const auto& lo : halves) {
    for (const auto& hi : halves) {
      std::array<std::uint8_t, 64> wide;
      const auto lo_bytes = lo.to_le_bytes32(), hi_bytes = hi.to_le_bytes32();
      std::copy(lo_bytes.begin(), lo_bytes.end(), wide.begin());
      std::copy(hi_bytes.begin(), hi_bytes.end(), wide.begin() + 32);
      EXPECT_EQ(Scalar::from_bytes_wide(wide).to_bytes(),
                lo.add(hi.mul(two_256)).mod(l).to_le_bytes32())
          << "wide=" << to_hex(ByteView(wide));
    }
  }
}

TEST_F(ScalarReferenceTest, ModOrderReductionMatchesReferenceOnEdges) {
  const auto l = ref_l();
  for (const auto& bytes : edge_values()) {
    EXPECT_EQ(Scalar::from_bytes_mod_order(bytes).to_bytes(),
              RefInt::from_le_bytes(bytes).mod(l).to_le_bytes32())
        << "x=" << to_hex(ByteView(bytes));
  }
}

TEST_F(ScalarReferenceTest, InvertMatchesReferenceExponentiation) {
  const auto l = ref_l();
  const auto l_minus_2 = l.sub(RefInt::from_u64(2));
  std::vector<Scalar> inputs = {Scalar::zero(), Scalar::one(),
                                Scalar::zero() - Scalar::one()};
  for (int i = 0; i < 4; ++i) inputs.push_back(Scalar::random(rng_));
  for (const Scalar& x : inputs) {
    const auto bytes = x.to_bytes();
    EXPECT_EQ(x.invert().to_bytes(),
              ref_pow(RefInt::from_le_bytes(bytes), l_minus_2, l)
                  .to_le_bytes32())
        << "x=" << to_hex(ByteView(bytes));
  }
}

TEST_F(ScalarReferenceTest, InvertMatchesFermatOnNamedAndRandomInputs) {
  const auto l_minus_2 = ref_l().sub(RefInt::from_u64(2)).to_le_bytes32();
  std::vector<Scalar> inputs;
  for (const auto& bytes : inversion_inputs()) {
    inputs.push_back(Scalar::from_bytes_mod_order(bytes));
  }
  for (int i = 0; i < 1000; ++i) inputs.push_back(Scalar::random(rng_));
  for (const Scalar& x : inputs) {
    const Scalar inv = x.invert();
    EXPECT_EQ(inv.to_bytes(), fermat_pow(x, l_minus_2).to_bytes())
        << "x=" << to_hex(ByteView(x.to_bytes()));
    EXPECT_EQ(x * inv, x.is_zero() ? Scalar::zero() : Scalar::one())
        << "x=" << to_hex(ByteView(x.to_bytes()));
  }
  EXPECT_EQ(Scalar::zero().invert(), Scalar::zero());
}

TEST_F(ScalarReferenceTest, MontgomeryRoundTripIdentities) {
  // (a*b)*c == a*(b*c) and a*1 == a on adversarial values.
  for (const auto& bytes : edge_values()) {
    const Scalar a = Scalar::from_bytes_mod_order(bytes);
    const Scalar b = Scalar::from_u64(0xffffffffffffffffULL);
    const Scalar c = Scalar::from_u64(2);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * Scalar::one(), a);
    EXPECT_EQ(a * Scalar::zero(), Scalar::zero());
  }
}

}  // namespace
}  // namespace cbl::ec
