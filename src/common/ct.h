// Constant-time building blocks. Everything in this header is written so
// that, at every optimization level, the generated code contains no branch
// and no memory access whose address depends on the *values* of the data
// being processed — only on their (public) lengths. The crypto modules
// (src/ec, src/oprf, src/hash, src/vrf, src/commit) must route every
// comparison, selection, or swap of secret material through these
// primitives; scripts/ct_lint.py and the ctcheck harness (src/ct) enforce
// the discipline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace cbl {

/// All-ones (0xFF..FF) when `flag` is true, all-zeroes otherwise, computed
/// without a branch. The canonical way to turn a secret boolean into a
/// selection mask.
inline std::uint64_t ct_mask_u64(bool flag) noexcept {
  return static_cast<std::uint64_t>(0) - static_cast<std::uint64_t>(flag);
}

inline std::uint8_t ct_mask_u8(bool flag) noexcept {
  return static_cast<std::uint8_t>(0) - static_cast<std::uint8_t>(flag);
}

/// a if flag else b, branch-free.
inline std::uint64_t ct_select_u64(bool flag, std::uint64_t a,
                                   std::uint64_t b) noexcept {
  const std::uint64_t mask = ct_mask_u64(flag);
  return b ^ (mask & (a ^ b));
}

inline std::uint8_t ct_select_u8(bool flag, std::uint8_t a,
                                 std::uint8_t b) noexcept {
  const std::uint8_t mask = ct_mask_u8(flag);
  return static_cast<std::uint8_t>(b ^ (mask & (a ^ b)));
}

/// True iff a == b, branch-free (beyond the length check — lengths are
/// public). Runs in time dependent only on the lengths.
bool ct_equal(ByteView a, ByteView b) noexcept;

/// True iff a == b over exactly `len` bytes, branch-free.
bool ct_equal(const std::uint8_t* a, const std::uint8_t* b,
              std::size_t len) noexcept;

template <std::size_t N>
bool ct_equal(const std::array<std::uint8_t, N>& a,
              const std::array<std::uint8_t, N>& b) noexcept {
  return ct_equal(a.data(), b.data(), N);
}

/// Writes (flag ? a : b) into out, byte by byte, branch-free. The three
/// buffers are `len` bytes each; out may alias a or b.
void ct_select(bool flag, std::uint8_t* out, const std::uint8_t* a,
               const std::uint8_t* b, std::size_t len) noexcept;

/// Exchanges a and b when flag is set, leaves both untouched otherwise —
/// same instruction sequence either way.
void ct_swap(bool flag, std::uint8_t* a, std::uint8_t* b,
             std::size_t len) noexcept;

/// Returns v unchanged, laundered through a register by an empty asm: an
/// optimizer that can see where a mask came from could otherwise rebuild
/// a masked select on it as a branch.
inline std::uint64_t ct_barrier_u64(std::uint64_t v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __asm__("" : "+r"(v));
#endif
  return v;
}

/// 64-bit limb variants, the workhorses of the field/scalar code.
/// ct_select_u64 writes (mask ? a : b) limbwise; `mask` is all-ones or
/// all-zeroes (ct_mask_u64), and out may alias a or b. It is inline so the
/// field code can fold it into straight-line arithmetic, with the mask
/// passed through ct_barrier_u64 first.
inline void ct_select_u64(std::uint64_t mask, std::uint64_t* out,
                          const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t limbs) noexcept {
  mask = ct_barrier_u64(mask);
  for (std::size_t i = 0; i < limbs; ++i) {
    out[i] = b[i] ^ (mask & (a[i] ^ b[i]));
  }
}
void ct_swap_u64(std::uint64_t mask, std::uint64_t* a, std::uint64_t* b,
                 std::size_t limbs) noexcept;

/// Zeroizes `len` bytes in a way the optimizer cannot elide (the memory is
/// "used" through a compiler barrier after the clear). Call from the
/// destructor of every type that holds key material.
void secure_wipe(void* p, std::size_t len) noexcept;

template <typename T, std::size_t N>
void secure_wipe(std::array<T, N>& a) noexcept {
  secure_wipe(a.data(), N * sizeof(T));
}

}  // namespace cbl
