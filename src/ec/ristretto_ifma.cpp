// The AVX-512 IFMA bodies of RistrettoPoint's scalar multiplications and
// of the four-lane square-root chain (see ec/ristretto_kernels.h): the
// serial ladder's signed radix-16 schedule, with every doubling and
// addition computed four field operations at a time, as in
// curve25519-dalek's IFMA backend.
//
// A point (X : Y : Z : T) is four 64-bit lanes, coordinate c in lane c.
// Every helper is written once over the register width: Fv<256> (F4)
// holds one point, or four independent field elements; Fv<512> holds two
// points, A in lanes 0-3 and B in lanes 4-7. Lane masks and permute
// immediates name the lanes of one point and apply to both halves alike
// (_mm512_permutex_epi64 permutes within each 256-bit half), so the two
// points never mix before they are stored.
//
// The doubling (dbl-2008-hwcd) and the addition of a cached point
// (add-2008-hwcd-3), both with a = -1, end in the same four products
// E*F, G*H, F*G, E*H = X3, Y3, Z3, T3, so each ends in one 4-way product
// (E, G, F, E) * (F, H, G, H). Before it, a doubling squares
// (X, Y, Z, X + Y) in one 4-way squaring and an addition multiplies
// (Y - X, Y + X, Z, T) by the cached (Y2 - X2, Y2 + X2, 2 Z2, 2d T2).
//
// Constant time: the vector instructions used here (IFMA, shifts, adds,
// permutes, masked moves and ternary logic) do not vary in latency with
// their data; each point's secret digit selects its table entry only
// through all-ones/all-zero masks applied to every entry, and the
// negation through a mask blend. No branch, index or lane choice depends
// on a digit.
//
// Every function carries a function-level target attribute instead of a
// per-file -m flag, so the file builds into any target that globs
// src/*/*.cpp, and the code runs only after the CPUID check in
// ristretto.cpp. The helpers are always_inline and their limb loops
// fully unrolled: at -O2, GCC otherwise keeps the column arrays in
// memory and the body runs slower than the serial ladder.
#include "ec/ristretto_kernels.h"

#if CBL_RISTRETTO_IFMA

// GCC 12 reports the _mm512_undefined_epi32() inside its own 512-bit
// intrinsics as uninitialized at every inlined use (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <vector>

#include "common/ct.h"

#define CBL_IFMA_TARGET __attribute__((target("avx512ifma,avx512vl")))
#define CBL_IFMA_INLINE CBL_IFMA_TARGET __attribute__((always_inline)) inline

namespace cbl::ec {

namespace {

using u64 = std::uint64_t;
using Limbs = std::array<std::array<u64, 5>, 4>;  // [coordinate][limb]

constexpr u64 kMask51 = (u64{1} << 51) - 1;

// The two register widths. kPoints is how many 4-lane groups (points)
// one register holds; lanes() widens a 4-lane mask to all of them; join()
// builds a register from kPoints 4-lane quads. The operations whose
// intrinsics differ only in their _mm256/_mm512 prefix are spelled once,
// in CBL_IFMA_VEC_OPS.
#define CBL_IFMA_VEC_OPS(P)                                                \
  CBL_IFMA_INLINE static V add(V a, V b) { return P##_add_epi64(a, b); }   \
  template <int N>                                                         \
  CBL_IFMA_INLINE static V srli(V a) { return P##_srli_epi64(a, N); }      \
  template <int N>                                                         \
  CBL_IFMA_INLINE static V slli(V a) { return P##_slli_epi64(a, N); }      \
  CBL_IFMA_INLINE static V madd52lo(V acc, V a, V b) {                     \
    return P##_madd52lo_epu64(acc, a, b);                                  \
  }                                                                        \
  CBL_IFMA_INLINE static V madd52hi(V acc, V a, V b) {                     \
    return P##_madd52hi_epu64(acc, a, b);                                  \
  }                                                                        \
  CBL_IFMA_INLINE static V mask_add(V src, __mmask8 k, V a, V b) {         \
    return P##_mask_add_epi64(src, k, a, b);                               \
  }                                                                        \
  CBL_IFMA_INLINE static V mask_sub(V src, __mmask8 k, V a, V b) {         \
    return P##_mask_sub_epi64(src, k, a, b);                               \
  }                                                                        \
  template <int Imm>                                                       \
  CBL_IFMA_INLINE static V permute(V a) { return P##_permutex_epi64(a, Imm); } \
  template <int Imm>                                                       \
  CBL_IFMA_INLINE static V maskz_permute(__mmask8 keep, V a) {             \
    return P##_maskz_permutex_epi64(keep, a, Imm);                         \
  }                                                                        \
  /* m ? a : b, bitwise. */                                                \
  CBL_IFMA_INLINE static V blend(V m, V a, V b) {                          \
    return P##_ternarylogic_epi64(m, a, b, 0xCA);                          \
  }

template <int Bits>
struct Vec;

template <>
struct Vec<256> {
  using V = __m256i;
  static constexpr int kPoints = 1;
  CBL_IFMA_VEC_OPS(_mm256)
  CBL_IFMA_INLINE static V set1(u64 x) { return _mm256_set1_epi64x(x); }
  CBL_IFMA_INLINE static V zero() { return _mm256_setzero_si256(); }
  CBL_IFMA_INLINE static V bit_and(V a, V b) { return _mm256_and_si256(a, b); }
  CBL_IFMA_INLINE static __mmask8 lanes(__mmask8 m) { return m; }
  CBL_IFMA_INLINE static V join(const __m256i* quads) { return quads[0]; }
  CBL_IFMA_INLINE static void store(u64* out, V a) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(out), a);
  }
};

template <>
struct Vec<512> {
  using V = __m512i;
  static constexpr int kPoints = 2;
  CBL_IFMA_VEC_OPS(_mm512)
  CBL_IFMA_INLINE static V set1(u64 x) { return _mm512_set1_epi64(x); }
  CBL_IFMA_INLINE static V zero() { return _mm512_setzero_si512(); }
  CBL_IFMA_INLINE static V bit_and(V a, V b) { return _mm512_and_si512(a, b); }
  CBL_IFMA_INLINE static __mmask8 lanes(__mmask8 m) {
    return static_cast<__mmask8>(m | (m << 4));
  }
  CBL_IFMA_INLINE static V join(const __m256i* quads) {
    return _mm512_inserti64x4(_mm512_castsi256_si512(quads[0]), quads[1], 1);
  }
  CBL_IFMA_INLINE static void store(u64* out, V a) {
    _mm512_store_si512(out, a);
  }
};

#undef CBL_IFMA_VEC_OPS

// Field elements in the radix-2^51 limbs of Fe25519, one per 64-bit lane:
// v[k] holds limb k of every lane. Two limb bounds hold:
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
// The alignment is the register's: outside AVX code GCC aligns __m256i
// to 16 bytes only, so a heap-allocated table would get 16-byte storage
// and aligned vector moves.
template <int Bits>
struct alignas(Bits / 8) Fv {
  typename Vec<Bits>::V v[5];
};
using F4 = Fv<256>;

// Lane masks and vpermq immediates: lane 0 (A) to 3 (D) of each point.
constexpr __mmask8 kLaneA = 0x1, kLaneC = 0x4, kLaneD = 0x8;

constexpr int perm(int a, int b, int c, int d) {
  return a | (b << 2) | (c << 4) | (d << 6);
}

// 2^12 * p, limbwise: above every value subtracted here (at most a sum of
// three wide products, < 3 * 2^61), and small enough that a wide product
// plus it stays below 2^64.
template <int B>
CBL_IFMA_INLINE typename Vec<B>::V bias(int k) {
  return Vec<B>::set1((k == 0 ? kMask51 - 18 : kMask51) << 12);
}

template <int Imm, int B>
CBL_IFMA_INLINE Fv<B> permute(const Fv<B>& a) {
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) r.v[k] = Vec<B>::template permute<Imm>(a.v[k]);
  return r;
}

// Lanes outside `keep` are zero.
template <int Imm, int B>
CBL_IFMA_INLINE Fv<B> permute_z(__mmask8 keep, const Fv<B>& a) {
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = Vec<B>::template maskz_permute<Imm>(Vec<B>::lanes(keep), a.v[k]);
  }
  return r;
}

template <int B>
CBL_IFMA_INLINE Fv<B> add(const Fv<B>& a, const Fv<B>& b) {
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) r.v[k] = Vec<B>::add(a.v[k], b.v[k]);
  return r;
}

// Lanes in `lanes` become bias() - a, the others keep a: a negation up to
// a multiple of p, for a wide sum to absorb.
template <int B>
CBL_IFMA_INLINE Fv<B> negate_lanes(__mmask8 lanes, const Fv<B>& a) {
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = Vec<B>::mask_sub(a.v[k], Vec<B>::lanes(lanes), bias<B>(k),
                              a.v[k]);
  }
  return r;
}

// Lanes in `lanes` become a + b, the others keep a.
template <int B>
CBL_IFMA_INLINE Fv<B> add_lanes(__mmask8 lanes, const Fv<B>& a,
                                const Fv<B>& b) {
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    r.v[k] = Vec<B>::mask_add(a.v[k], Vec<B>::lanes(lanes), a.v[k], b.v[k]);
  }
  return r;
}

// Wide -> reduced by one parallel carry: with limbs < 2^64 every carry
// is below 2^13, so limbs 1..4 end below 2^51 + 2^13 and limb 0, which
// takes 19 times the top carry (2^255 = 19 mod p), below 2^51 + 19 * 2^13.
template <int B>
CBL_IFMA_INLINE Fv<B> reduce(const Fv<B>& a) {
  using W = Vec<B>;
  const typename W::V mask = W::set1(kMask51);
  typename W::V c[5];
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    c[k] = W::template srli<51>(a.v[k]);
    r.v[k] = W::bit_and(a.v[k], mask);
  }
#pragma GCC unroll 4
  for (int k = 1; k < 5; ++k) r.v[k] = W::add(r.v[k], c[k - 1]);
  r.v[0] = W::madd52lo(r.v[0], c[4], W::set1(19));
  return r;
}

template <int B>
CBL_IFMA_INLINE typename Vec<B>::V times19(typename Vec<B>::V z) {
  using W = Vec<B>;
  return W::add(z, W::add(W::template slli<1>(z), W::template slli<4>(z)));
}

// Folds the ten columns of a product into five wide limbs. lo[k] sums the
// low 52 bits of the limb products of weight 2^(51k); hi[k] sums the
// high 52 bits of the products one column down, and since 2^52 = 2 * 2^51
// each counts twice. Columns 5..9 wrap around with a factor 19.
template <int B>
CBL_IFMA_INLINE Fv<B> fold(const typename Vec<B>::V lo[10],
                           const typename Vec<B>::V hi[10]) {
  using W = Vec<B>;
  typename W::V z[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    z[k] = W::add(lo[k], W::template slli<1>(hi[k]));
  }
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) r.v[k] = W::add(z[k], times19<B>(z[k + 5]));
  return r;
}

// Reduced * reduced -> wide. Each limb product is below 2^104, so its low
// and high 52-bit halves are below 2^52. Column k collects n_k low halves
// and n_(k-1) doubled high halves, n = (1, 2, 3, 4, 5, 4, 3, 2, 1), so the
// column sums are below (1, 4, 7, 10, 13, 14, 11, 8, 5, 2) * 2^52 and the
// folded limb 0, the largest, below (1 + 19 * 14) * 2^52 < 2^61.
template <int B>
CBL_IFMA_INLINE Fv<B> mul(const Fv<B>& a, const Fv<B>& b) {
  using W = Vec<B>;
  typename W::V lo[10], hi[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) lo[k] = hi[k] = W::zero();
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
      lo[i + j] = W::madd52lo(lo[i + j], a.v[i], b.v[j]);
      hi[i + j + 1] = W::madd52hi(hi[i + j + 1], a.v[i], b.v[j]);
    }
  }
  return fold<B>(lo, hi);
}

// Reduced^2 -> wide, the same column sums as mul(a, a) from 15 limb
// products instead of 25: each a_i * a_j with i < j is taken once into
// `lo2`/`hi4` and counted twice.
template <int B>
CBL_IFMA_INLINE Fv<B> square(const Fv<B>& a) {
  using W = Vec<B>;
  // lo1: low halves of a_i^2 (weight 1); lo2: low halves of a_i * a_j,
  // i < j, and high halves of a_i^2 (weight 2); hi4: high halves of
  // a_i * a_j, i < j (weight 4).
  typename W::V lo1[10], lo2[10], hi4[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) lo1[k] = lo2[k] = hi4[k] = W::zero();
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    lo1[2 * i] = W::madd52lo(lo1[2 * i], a.v[i], a.v[i]);
    lo2[2 * i + 1] = W::madd52hi(lo2[2 * i + 1], a.v[i], a.v[i]);
#pragma GCC unroll 4
    for (int j = i + 1; j < 5; ++j) {
      lo2[i + j] = W::madd52lo(lo2[i + j], a.v[i], a.v[j]);
      hi4[i + j + 1] = W::madd52hi(hi4[i + j + 1], a.v[i], a.v[j]);
    }
  }
  // fold() doubles its second argument: lo1 + 2 * (lo2 + 2 * hi4).
  typename W::V lo[10], hi[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    lo[k] = lo1[k];
    hi[k] = W::add(lo2[k], W::template slli<1>(hi4[k]));
  }
  return fold<B>(lo, hi);
}

// The shared tail of a doubling and an addition: from wide
// w = (E, G, F, H), the wide point (E*F, G*H, F*G, E*H).
template <int B>
CBL_IFMA_INLINE Fv<B> finish(const Fv<B>& w) {
  const Fv<B> r = reduce(w);
  return mul(permute<perm(0, 1, 2, 0)>(r), permute<perm(2, 3, 1, 3)>(r));
}

// 2P from a wide (X, Y, Z, T); T is not read. With A = X^2, B = Y^2,
// C = Z^2 and S = (X + Y)^2: E = S - A - B, G = B - A, F = G - 2C and
// H = -A - B.
template <int B>
CBL_IFMA_INLINE Fv<B> double_point(const Fv<B>& p) {
  // (X, Y, Z, X + Y)
  const Fv<B> v = add_lanes(kLaneD, permute<perm(0, 1, 2, 0)>(p),
                            permute<perm(1, 1, 1, 1)>(p));
  const Fv<B> s = square(reduce(v));  // (A, B, C, S)

  // (S, B, B, 0) + (-(A + B), -A, -(A + 2C), -(A + B)).
  const Fv<B> a = permute<perm(0, 0, 0, 0)>(s);
  const Fv<B> n = add_lanes(
      kLaneC,
      add(a, permute_z<perm(1, 0, 2, 1)>(kLaneA | kLaneC | kLaneD, s)), s);
  const Fv<B> m = permute_z<perm(3, 1, 1, 0)>(0x7, s);
  return finish(add(m, negate_lanes(0xF, n)));
}

// (Y - X, Y + X, Z, T), reduced, from a wide (X, Y, Z, T).
template <int B>
CBL_IFMA_INLINE Fv<B> diff_sum(const Fv<B>& p) {
  // (Y, Y, Z, T) + (-X, X, 0, 0)
  return reduce(
      add(permute<perm(1, 1, 2, 3)>(p),
          negate_lanes(kLaneA, permute_z<perm(0, 0, 0, 0)>(0x3, p))));
}

// P + Q for a wide P and a reduced cached Q = (Y2 - X2, Y2 + X2, 2 Z2,
// 2d T2). With A = (Y - X)(Y2 - X2), B = (Y + X)(Y2 + X2), D = 2 Z Z2
// and C = 2d T T2: E = B - A, G = D + C, F = D - C and H = B + A.
template <int B>
CBL_IFMA_INLINE Fv<B> add_cached(const Fv<B>& p, const Fv<B>& q) {
  const Fv<B> r = mul(diff_sum(p), q);  // (A, B, D, C)
  // (B, D, D, B) + (-A, C, -C, A)
  return finish(add(permute<perm(1, 2, 2, 1)>(r),
                    negate_lanes(kLaneA | kLaneC,
                                 permute<perm(0, 3, 3, 0)>(r))));
}

// (Y - X, Y + X, 2Z, 2dT), reduced, from a wide (X, Y, Z, T); `scale`
// is (1, 1, 2, 2d).
template <int B>
CBL_IFMA_INLINE Fv<B> to_cached(const Fv<B>& p, const Fv<B>& scale) {
  return reduce(mul(diff_sum(p), scale));
}

// -Q for a reduced cached Q: swaps Y - X with Y + X and negates 2dT.
template <int B>
CBL_IFMA_INLINE Fv<B> negate_cached(const Fv<B>& q) {
  return reduce(negate_lanes(kLaneD, permute<perm(1, 0, 2, 3)>(q)));
}

template <int B>
CBL_IFMA_INLINE Fv<B> mul_by_16(Fv<B> p) {
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) p = double_point(p);
  return p;
}

// Point j of `points` (one per 4-lane group) in lanes 4j..4j+3: lane c
// of every limb from coordinate c.
template <int B>
CBL_IFMA_INLINE Fv<B> load(const Limbs* points) {
  Fv<B> r;
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) {
    __m256i quads[Vec<B>::kPoints];
    for (int j = 0; j < Vec<B>::kPoints; ++j) {
      const Limbs& c = points[j];
      quads[j] = _mm256_setr_epi64x(
          static_cast<long long>(c[0][k]), static_cast<long long>(c[1][k]),
          static_cast<long long>(c[2][k]), static_cast<long long>(c[3][k]));
    }
    r.v[k] = Vec<B>::join(quads);
  }
  return r;
}

// The same constant in every 4-lane group.
template <int B>
CBL_IFMA_INLINE Fv<B> broadcast(const Limbs& c) {
  Limbs copies[Vec<B>::kPoints];
  for (int j = 0; j < Vec<B>::kPoints; ++j) copies[j] = c;
  return load<B>(copies);
}

// The identity as a point and as a cached addend.
constexpr Limbs kIdentity = {{{0}, {1}, {1}, {0}}};
constexpr Limbs kIdentityCached = {{{1}, {1}, {2}, {0}}};

// The cached-form multiplier (1, 1, 2, 2d).
template <int B>
CBL_IFMA_INLINE Fv<B> cached_scale(const std::array<u64, 5>& two_d) {
  return broadcast<B>({{{1}, {1}, {2}, two_d}});
}

// {1P, 2P, ..., 8P} in cached form.
template <int B>
CBL_IFMA_INLINE void multiples(const Fv<B>& p, const Fv<B>& scale,
                               Fv<B> table[8]) {
  table[0] = to_cached(p, scale);
  for (int j = 1; j < 8; ++j) {
    table[j] = to_cached(add_cached(p, table[j - 1]), scale);
  }
}

// One all-ones/all-zero mask per 4-lane group, from masks[j].
template <int B>
CBL_IFMA_INLINE typename Vec<B>::V group_masks(const u64* masks) {
  __m256i quads[Vec<B>::kPoints];
  for (int j = 0; j < Vec<B>::kPoints; ++j) {
    quads[j] = _mm256_set1_epi64x(static_cast<long long>(masks[j]));
  }
  return Vec<B>::join(quads);
}

// digits[j][i] * P_j from each point's table, in that point's lanes.
template <int B>
CBL_IFMA_TARGET Fv<B> select(const Fv<B> table[8],
                             const std::int8_t* const* digits, std::size_t i) {
  constexpr int kPoints = Vec<B>::kPoints;
  u64 neg_mask[kPoints];   // ct:secret
  u64 abs_digit[kPoints];  // ct:secret
  for (int j = 0; j < kPoints; ++j) {
    const std::int64_t digit = digits[j][i];  // ct:secret
    neg_mask[j] = static_cast<u64>(digit >> 63);
    abs_digit[j] = (static_cast<u64>(digit) ^ neg_mask[j]) - neg_mask[j];
  }
  Fv<B> r = broadcast<B>(kIdentityCached);
  for (u64 e = 0; e < 8; ++e) {
    u64 hit[kPoints];
    for (int j = 0; j < kPoints; ++j) {
      hit[j] = RistrettoKernels::eq_mask(abs_digit[j], e + 1);
    }
    const typename Vec<B>::V m = group_masks<B>(hit);
#pragma GCC unroll 5
    for (int k = 0; k < 5; ++k) {
      r.v[k] = Vec<B>::blend(m, table[e].v[k], r.v[k]);
    }
  }
  const Fv<B> n = negate_cached(r);
  const typename Vec<B>::V m = group_masks<B>(neg_mask);
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) r.v[k] = Vec<B>::blend(m, n.v[k], r.v[k]);
  return r;
}

// Point j of a wide register, reduced, into out[j].
template <int B>
CBL_IFMA_INLINE void store(const Fv<B>& wide, Limbs* out) {
  const Fv<B> r = reduce(wide);
  alignas(B / 8) u64 lanes[5][4 * Vec<B>::kPoints];
#pragma GCC unroll 5
  for (int k = 0; k < 5; ++k) Vec<B>::store(lanes[k], r.v[k]);
  for (int j = 0; j < Vec<B>::kPoints; ++j) {
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t k = 0; k < 5; ++k) out[j][c][k] = lanes[k][4 * j + c];
    }
  }
}

// *points[j] * *scalars[j] for each of the register's points, all on one
// signed radix-16 schedule.
template <int B>
CBL_IFMA_TARGET void ladder(const RistrettoPoint* const* points,
                            const Scalar* const* scalars,
                            const std::array<u64, 5>& two_d,
                            RistrettoPoint* out) noexcept {
  constexpr int kPoints = Vec<B>::kPoints;
  std::array<std::int8_t, 64> digits[kPoints];  // ct:secret
  const std::int8_t* recoded[kPoints];
  Limbs limbs[kPoints];
  for (int j = 0; j < kPoints; ++j) {
    digits[j] = RistrettoKernels::radix16(*scalars[j]);
    recoded[j] = digits[j].data();
    limbs[j] = RistrettoKernels::to_limbs(*points[j]);
  }
  Fv<B> table[8];
  multiples(load<B>(limbs), cached_scale<B>(two_d), table);

  Fv<B> acc = add_cached(broadcast<B>(kIdentity), select(table, recoded, 63));
  for (std::size_t i = 63; i-- > 0;) {
    acc = add_cached(mul_by_16(acc), select(table, recoded, i));
  }
  secure_wipe(table, sizeof table);  // multiples of a possibly secret point
  secure_wipe(digits, sizeof digits);
  store(acc, limbs);
  for (int j = 0; j < kPoints; ++j) {
    out[j] = RistrettoKernels::from_limbs(limbs[j]);
  }
}

// Variable-time: public inputs only. ct:public
CBL_IFMA_TARGET Limbs interleaved(
    const std::vector<Limbs>& points,
    const std::vector<std::array<std::int8_t, 64>>& recoded,
    const std::array<u64, 5>& two_d) {
  const F4 scale = cached_scale<256>(two_d);
  struct Table {
    F4 entry[8];
  };
  std::vector<Table> tables(points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    multiples(load<256>(&points[k]), scale, tables[k].entry);
  }

  F4 acc = broadcast<256>(kIdentity);
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
  Limbs out;
  store(acc, &out);
  return out;
}

// x^(2^k) in every lane: k squarings.
CBL_IFMA_INLINE F4 pow2k(F4 x, int k) {
  for (int i = 0; i < k; ++i) x = reduce(square(x));
  return x;
}

// x^((p - 5) / 8) in each of the four lanes, by the ref10 addition chain
// of Fe25519::pow_p58 (names say which power of x each step holds,
// x_a_b = x^(2^a - 2^b)). The schedule is fixed, so the trace is the same
// for every input.
CBL_IFMA_TARGET Limbs pow_p58(const Limbs& in) noexcept {
  const F4 x = load<256>(&in);
  const F4 x2 = reduce(square(x));
  const F4 x9 = reduce(mul(pow2k(x2, 2), x));
  const F4 x11 = reduce(mul(x9, x2));
  const F4 x_5_0 = reduce(mul(reduce(square(x11)), x9));
  const F4 x_10_0 = reduce(mul(pow2k(x_5_0, 5), x_5_0));
  const F4 x_20_0 = reduce(mul(pow2k(x_10_0, 10), x_10_0));
  const F4 x_40_0 = reduce(mul(pow2k(x_20_0, 20), x_20_0));
  const F4 x_50_0 = reduce(mul(pow2k(x_40_0, 10), x_10_0));
  const F4 x_100_0 = reduce(mul(pow2k(x_50_0, 50), x_50_0));
  const F4 x_200_0 = reduce(mul(pow2k(x_100_0, 100), x_100_0));
  const F4 x_250_0 = reduce(mul(pow2k(x_200_0, 50), x_50_0));
  // (p - 5) / 8 = (2^250 - 1) * 2^2 + 1.
  Limbs out;
  store(mul(pow2k(x_250_0, 2), x), &out);
  return out;
}

}  // namespace

const std::array<std::uint64_t, 5>& RistrettoKernels::two_d_limbs() noexcept {
  static const std::array<std::uint64_t, 5> v =
      limbs(Fe25519::edwards_d() * Fe25519::from_u64(2));
  return v;
}

RistrettoPoint RistrettoKernels::mul_ifma(const RistrettoPoint& p,
                                          const Scalar& s) noexcept {
  const RistrettoPoint* points[1] = {&p};
  const Scalar* scalars[1] = {&s};
  RistrettoPoint out;
  ladder<256>(points, scalars, two_d_limbs(), &out);
  return out;
}

std::array<RistrettoPoint, 2> RistrettoKernels::mul_pair_ifma(
    const RistrettoPoint& p0, const Scalar& s0, const RistrettoPoint& p1,
    const Scalar& s1) noexcept {
  const RistrettoPoint* points[2] = {&p0, &p1};
  const Scalar* scalars[2] = {&s0, &s1};
  std::array<RistrettoPoint, 2> out;
  ladder<512>(points, scalars, two_d_limbs(), out.data());
  return out;
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

void RistrettoKernels::pow_p58_x4_ifma(std::array<Fe25519, 4>& x,
                                       std::size_t /*n*/) noexcept {
  Limbs in = {limbs(x[0]), limbs(x[1]), limbs(x[2]), limbs(x[3])};
  Limbs out = pow_p58(in);
  for (std::size_t i = 0; i < 4; ++i) x[i] = fe(out[i]);
  secure_wipe(in);
  secure_wipe(out);
}

}  // namespace cbl::ec

#endif  // CBL_RISTRETTO_IFMA
