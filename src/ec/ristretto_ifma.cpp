// The AVX-512 IFMA body of RistrettoPoint's scalar multiplications (see
// ec/ristretto_kernels.h): the serial ladder's signed radix-16 schedule,
// with every doubling and addition computed four field operations at a
// time, as in curve25519-dalek's IFMA backend.
//
// A point (X : Y : Z : T) is one F4: coordinate c in 64-bit lane c. The
// doubling (dbl-2008-hwcd) and the addition of a cached point
// (add-2008-hwcd-3), both with a = -1, end in the same four products
// E*F, G*H, F*G, E*H = X3, Y3, Z3, T3, so each ends in one 4-way product
// (E, G, F, E) * (F, H, G, H). Before it, a doubling squares
// (X, Y, Z, X + Y) in one 4-way squaring and an addition multiplies
// (Y - X, Y + X, Z, T) by the cached (Y2 - X2, Y2 + X2, 2 Z2, 2d T2).
//
// Constant time: the vector instructions used here (IFMA, shifts, adds,
// permutes, masked moves and ternary logic) do not vary in latency with
// their data; the secret digit selects a table entry only through
// all-ones/all-zero masks applied to every entry, and the negation
// through a mask blend. No branch, index or lane choice depends on it.
//
// Every function carries a function-level target attribute instead of a
// per-file -m flag, so the file builds into any target that globs
// src/*/*.cpp, and the code runs only after the CPUID check in
// ristretto.cpp. The helpers are always_inline and their limb loops
// fully unrolled: at -O2, GCC otherwise keeps the column arrays in
// memory and the body runs slower than the serial ladder.
#include "ec/ristretto_kernels.h"

#if CBL_RISTRETTO_IFMA

#include <immintrin.h>

#include <vector>

#include "common/ct.h"

#define CBL_IFMA_TARGET __attribute__((target("avx512ifma,avx512vl")))
#define CBL_IFMA_INLINE CBL_IFMA_TARGET __attribute__((always_inline)) inline

namespace cbl::ec {

namespace {

using u64 = std::uint64_t;
using Limbs = std::array<std::array<u64, 5>, 4>;  // [coordinate][limb]

constexpr u64 kMask51 = (u64{1} << 51) - 1;

// Four field elements, one per 64-bit lane, in the radix-2^51 limbs of
// Fe25519: v[k] holds limb k of every lane. Two limb bounds hold:
//
//  - Reduced: every limb < 2^52. mul() and square() take only reduced
//    operands: VPMADD52 reads the low 52 bits of each source, so a limb
//    of 2^52 or more would be truncated silently, a wrong result rather
//    than a crash. reduce() returns reduced elements, and so do the
//    conversions from Fe25519 (whose reduced bound is the same).
//  - Wide: every limb < 2^64. mul() and square() return column sums
//    below 267 * 2^52 < 2^61 (see mul), so a sum of two of them, or one
//    plus bias(), is still wide, and reduce() accepts it.
//
// alignas(32): outside AVX code GCC aligns __m256i to 16 bytes only, so a
// heap-allocated table would get 16-byte storage and aligned vector moves.
struct alignas(32) F4 {
  __m256i v[5];
};

// Lane masks and vpermq immediates: lane 0 (A) to 3 (D).
constexpr __mmask8 kLaneA = 0x1, kLaneC = 0x4, kLaneD = 0x8;

constexpr int perm(int a, int b, int c, int d) {
  return a | (b << 2) | (c << 4) | (d << 6);
}

CBL_IFMA_INLINE __m256i splat(u64 x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

// 2^12 * p, limbwise: above every value subtracted here (at most a sum of
// three wide products, < 3 * 2^61), and small enough that a wide product
// plus it stays below 2^64.
CBL_IFMA_INLINE __m256i bias(int k) {
  return splat((k == 0 ? kMask51 - 18 : kMask51) << 12);
}

template <int Imm>
CBL_IFMA_INLINE F4 permute(const F4& a) {
  F4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) r.v[k] = _mm256_permute4x64_epi64(a.v[k], Imm);
  return r;
}

// Lanes outside `keep` are zero.
template <int Imm>
CBL_IFMA_INLINE F4 permute_z(__mmask8 keep, const F4& a) {
  F4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = _mm256_maskz_permutex_epi64(keep, a.v[k], Imm);
  }
  return r;
}

CBL_IFMA_INLINE F4 add(const F4& a, const F4& b) {
  F4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) r.v[k] = _mm256_add_epi64(a.v[k], b.v[k]);
  return r;
}

// Lanes in `lanes` become bias() - a, the others keep a: a negation up to
// a multiple of p, for a wide sum to absorb.
CBL_IFMA_INLINE F4 negate_lanes(__mmask8 lanes, const F4& a) {
  F4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = _mm256_mask_sub_epi64(a.v[k], lanes, bias(k), a.v[k]);
  }
  return r;
}

// Wide -> reduced by one parallel carry: with limbs < 2^64 every carry
// is below 2^13, so limbs 1..4 end below 2^51 + 2^13 and limb 0, which
// takes 19 times the top carry (2^255 = 19 mod p), below 2^51 + 19 * 2^13.
CBL_IFMA_INLINE F4 reduce(const F4& a) {
  const __m256i mask = splat(kMask51);
  __m256i c[5];
  F4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    c[k] = _mm256_srli_epi64(a.v[k], 51);
    r.v[k] = _mm256_and_si256(a.v[k], mask);
  }
#pragma GCC unroll 4
  for (int k = 1; k < 5; ++k) r.v[k] = _mm256_add_epi64(r.v[k], c[k - 1]);
  r.v[0] = _mm256_madd52lo_epu64(r.v[0], c[4], splat(19));
  return r;
}

CBL_IFMA_INLINE __m256i times19(__m256i z) {
  return _mm256_add_epi64(
      z, _mm256_add_epi64(_mm256_slli_epi64(z, 1), _mm256_slli_epi64(z, 4)));
}

// Folds the ten columns of a product into five wide limbs. lo[k] sums the
// low 52 bits of the limb products of weight 2^(51k); hi[k] sums the
// high 52 bits of the products one column down, and since 2^52 = 2 * 2^51
// each counts twice. Columns 5..9 wrap around with a factor 19.
CBL_IFMA_INLINE F4 fold(const __m256i lo[10], const __m256i hi[10]) {
  __m256i z[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    z[k] = _mm256_add_epi64(lo[k], _mm256_slli_epi64(hi[k], 1));
  }
  F4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = _mm256_add_epi64(z[k], times19(z[k + 5]));
  }
  return r;
}

// Reduced * reduced -> wide. Each limb product is below 2^104, so its low
// and high 52-bit halves are below 2^52. Column k collects n_k low halves
// and n_(k-1) doubled high halves, n = (1, 2, 3, 4, 5, 4, 3, 2, 1), so the
// column sums are below (1, 4, 7, 10, 13, 14, 11, 8, 5, 2) * 2^52 and the
// folded limb 0, the largest, below (1 + 19 * 14) * 2^52 < 2^61.
CBL_IFMA_INLINE F4 mul(const F4& a, const F4& b) {
  __m256i lo[10], hi[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) lo[k] = hi[k] = _mm256_setzero_si256();
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
      lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], a.v[i], b.v[j]);
      hi[i + j + 1] = _mm256_madd52hi_epu64(hi[i + j + 1], a.v[i], b.v[j]);
    }
  }
  return fold(lo, hi);
}

// Reduced^2 -> wide, the same column sums as mul(a, a) from 15 limb
// products instead of 25: each a_i * a_j with i < j is taken once into
// `lo2`/`hi4` and counted twice.
CBL_IFMA_INLINE F4 square(const F4& a) {
  // lo1: low halves of a_i^2 (weight 1); lo2: low halves of a_i * a_j,
  // i < j, and high halves of a_i^2 (weight 2); hi4: high halves of
  // a_i * a_j, i < j (weight 4).
  __m256i lo1[10], lo2[10], hi4[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    lo1[k] = lo2[k] = hi4[k] = _mm256_setzero_si256();
  }
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    lo1[2 * i] = _mm256_madd52lo_epu64(lo1[2 * i], a.v[i], a.v[i]);
    lo2[2 * i + 1] = _mm256_madd52hi_epu64(lo2[2 * i + 1], a.v[i], a.v[i]);
#pragma GCC unroll 4
    for (int j = i + 1; j < 5; ++j) {
      lo2[i + j] = _mm256_madd52lo_epu64(lo2[i + j], a.v[i], a.v[j]);
      hi4[i + j + 1] = _mm256_madd52hi_epu64(hi4[i + j + 1], a.v[i], a.v[j]);
    }
  }
  // fold() doubles its second argument: lo1 + 2 * (lo2 + 2 * hi4).
  __m256i lo[10], hi[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    lo[k] = lo1[k];
    hi[k] = _mm256_add_epi64(lo2[k], _mm256_slli_epi64(hi4[k], 1));
  }
  return fold(lo, hi);
}

// The shared tail of a doubling and an addition: from wide
// w = (E, G, F, H), the wide point (E*F, G*H, F*G, E*H).
CBL_IFMA_INLINE F4 finish(const F4& w) {
  const F4 r = reduce(w);
  return mul(permute<perm(0, 1, 2, 0)>(r), permute<perm(2, 3, 1, 3)>(r));
}

// 2P from a wide (X, Y, Z, T); T is not read. With A = X^2, B = Y^2,
// C = Z^2 and S = (X + Y)^2: E = S - A - B, G = B - A, F = G - 2C and
// H = -A - B.
CBL_IFMA_INLINE F4 double_point(const F4& p) {
  // (X, Y, Z, X + Y)
  F4 v = permute<perm(0, 1, 2, 0)>(p);
  const F4 y = permute<perm(1, 1, 1, 1)>(p);
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    v.v[k] = _mm256_mask_add_epi64(v.v[k], kLaneD, v.v[k], y.v[k]);
  }
  const F4 s = square(reduce(v));  // (A, B, C, S)

  // (S, B, B, 0) + (-(A + B), -A, -(A + 2C), -(A + B)).
  const F4 a = permute<perm(0, 0, 0, 0)>(s);
  F4 n = add(a, permute_z<perm(1, 0, 2, 1)>(kLaneA | kLaneC | kLaneD, s));
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    n.v[k] = _mm256_mask_add_epi64(n.v[k], kLaneC, n.v[k], s.v[k]);
  }
  const F4 m = permute_z<perm(3, 1, 1, 0)>(0x7, s);
  return finish(add(m, negate_lanes(0xF, n)));
}

// (Y - X, Y + X, Z, T), reduced, from a wide (X, Y, Z, T).
CBL_IFMA_INLINE F4 diff_sum(const F4& p) {
  // (Y, Y, Z, T) + (-X, X, 0, 0)
  return reduce(
      add(permute<perm(1, 1, 2, 3)>(p),
          negate_lanes(kLaneA, permute_z<perm(0, 0, 0, 0)>(0x3, p))));
}

// P + Q for a wide P and a reduced cached Q = (Y2 - X2, Y2 + X2, 2 Z2,
// 2d T2). With A = (Y - X)(Y2 - X2), B = (Y + X)(Y2 + X2), D = 2 Z Z2
// and C = 2d T T2: E = B - A, G = D + C, F = D - C and H = B + A.
CBL_IFMA_INLINE F4 add_cached(const F4& p, const F4& q) {
  const F4 r = mul(diff_sum(p), q);  // (A, B, D, C)
  // (B, D, D, B) + (-A, C, -C, A)
  return finish(add(permute<perm(1, 2, 2, 1)>(r),
                    negate_lanes(kLaneA | kLaneC,
                                 permute<perm(0, 3, 3, 0)>(r))));
}

// (Y - X, Y + X, 2Z, 2dT), reduced, from a wide (X, Y, Z, T); `scale`
// is (1, 1, 2, 2d).
CBL_IFMA_INLINE F4 to_cached(const F4& p, const F4& scale) {
  return reduce(mul(diff_sum(p), scale));
}

// -Q for a reduced cached Q: swaps Y - X with Y + X and negates 2dT.
CBL_IFMA_INLINE F4 negate_cached(const F4& q) {
  return reduce(negate_lanes(kLaneD, permute<perm(1, 0, 2, 3)>(q)));
}

CBL_IFMA_INLINE F4 mul_by_16(F4 p) {
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) p = double_point(p);
  return p;
}

// Lane c of every limb from coordinate c.
CBL_IFMA_INLINE F4 load(const Limbs& c) {
  F4 r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = _mm256_setr_epi64x(
        static_cast<long long>(c[0][k]), static_cast<long long>(c[1][k]),
        static_cast<long long>(c[2][k]), static_cast<long long>(c[3][k]));
  }
  return r;
}

CBL_IFMA_INLINE F4 identity_point() { return load({{{0}, {1}, {1}, {0}}}); }
CBL_IFMA_INLINE F4 identity_cached() { return load({{{1}, {1}, {2}, {0}}}); }

// The cached-form multiplier (1, 1, 2, 2d).
CBL_IFMA_INLINE F4 cached_scale(const std::array<u64, 5>& two_d) {
  return load({{{1}, {1}, {2}, two_d}});
}

// {1P, 2P, ..., 8P} in cached form.
CBL_IFMA_INLINE void multiples(const F4& p, const F4& scale, F4 table[8]) {
  table[0] = to_cached(p, scale);
  for (int j = 1; j < 8; ++j) {
    table[j] = to_cached(add_cached(p, table[j - 1]), scale);
  }
}

CBL_IFMA_TARGET F4 select(const F4 table[8], std::int8_t digit) {
  const u64 neg_mask =  // ct:secret
      static_cast<u64>(std::int64_t{digit} >> 63);
  const u64 abs_digit =  // ct:secret
      (static_cast<u64>(std::int64_t{digit}) ^ neg_mask) - neg_mask;
  F4 r = identity_cached();
  for (u64 j = 0; j < 8; ++j) {
    const __m256i m = splat(RistrettoKernels::eq_mask(abs_digit, j + 1));
#pragma GCC unroll 5
    for (int k = 0; k < 5; ++k) {
      // m ? table[j] : r, bitwise.
      r.v[k] = _mm256_ternarylogic_epi64(m, table[j].v[k], r.v[k], 0xCA);
    }
  }
  const F4 n = negate_cached(r);
  const __m256i m = splat(neg_mask);
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = _mm256_ternarylogic_epi64(m, n.v[k], r.v[k], 0xCA);
  }
  return r;
}

CBL_IFMA_INLINE Limbs store(const F4& wide) {
  const F4 r = reduce(wide);
  alignas(32) u64 lanes[5][4];
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[k]), r.v[k]);
  }
  Limbs out;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t k = 0; k < 5; ++k) out[c][k] = lanes[k][c];
  }
  return out;
}

CBL_IFMA_TARGET Limbs ladder(const Limbs& p, const std::int8_t* digits,
                             const std::array<u64, 5>& two_d) noexcept {
  const F4 scale = cached_scale(two_d);
  F4 table[8];
  multiples(load(p), scale, table);

  F4 acc = add_cached(identity_point(), select(table, digits[63]));
  for (std::size_t i = 63; i-- > 0;) {
    acc = add_cached(mul_by_16(acc), select(table, digits[i]));
  }
  secure_wipe(table, sizeof table);  // multiples of a possibly secret point
  return store(acc);
}

// Variable-time: public inputs only. ct:public
CBL_IFMA_TARGET Limbs interleaved(
    const std::vector<Limbs>& points,
    const std::vector<std::array<std::int8_t, 64>>& recoded,
    const std::array<u64, 5>& two_d) {
  const F4 scale = cached_scale(two_d);
  struct Table {
    F4 entry[8];
  };
  std::vector<Table> tables(points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    multiples(load(points[k]), scale, tables[k].entry);
  }

  F4 acc = identity_point();
  for (std::size_t i = 64; i-- > 0;) {
    acc = mul_by_16(acc);
    for (std::size_t k = 0; k < points.size(); ++k) {
      const std::int8_t d = recoded[k][i];
      if (d > 0) {
        acc = add_cached(acc, tables[k].entry[d - 1]);
      } else if (d < 0) {
        acc = add_cached(acc, negate_cached(tables[k].entry[-d - 1]));
      }
    }
  }
  return store(acc);
}

}  // namespace

const std::array<std::uint64_t, 5>& RistrettoKernels::two_d_limbs() noexcept {
  static const std::array<std::uint64_t, 5> v =
      limbs(Fe25519::edwards_d() * Fe25519::from_u64(2));
  return v;
}

RistrettoPoint RistrettoKernels::mul_ifma(const RistrettoPoint& p,
                                          const Scalar& s) noexcept {
  std::array<std::int8_t, 64> digits = radix16(s);  // ct:secret
  const Limbs out = ladder(to_limbs(p), digits.data(), two_d_limbs());
  secure_wipe(digits);
  return from_limbs(out);
}

RistrettoPoint RistrettoKernels::multiscalar_ifma(
    std::span<const Scalar> scalars, std::span<const RistrettoPoint> points) {
  std::vector<Limbs> terms(points.size());
  std::vector<std::array<std::int8_t, 64>> recoded(scalars.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    terms[k] = to_limbs(points[k]);
    recoded[k] = radix16(scalars[k]);
  }
  return from_limbs(interleaved(terms, recoded, two_d_limbs()));
}

}  // namespace cbl::ec

#endif  // CBL_RISTRETTO_IFMA
