#include "common/ct.h"

#include <cstring>

namespace cbl {

namespace {

// Prevents the compiler from reasoning about the pointed-to memory across
// the call site: the asm "reads and writes" it as far as the optimizer
// knows, so a preceding memset cannot be removed as dead.
inline void compiler_barrier(void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __asm__ __volatile__("" : : "r"(p) : "memory");
#else
  (void)p;
#endif
}

// Collapses a nonzero accumulator to 1 and zero to 0 without a
// data-dependent branch (the standard "is_nonzero" bit trick).
inline std::uint64_t nonzero_to_one(std::uint64_t v) noexcept {
  return (v | (static_cast<std::uint64_t>(0) - v)) >> 63;
}

}  // namespace

bool ct_equal(const std::uint8_t* a, const std::uint8_t* b,
              std::size_t len) noexcept {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < len; ++i) acc |= a[i] ^ b[i];
  return nonzero_to_one(acc) == 0;
}

bool ct_equal(ByteView a, ByteView b) noexcept {
  if (a.size() != b.size()) return false;  // ct:public — lengths are public
  return ct_equal(a.data(), b.data(), a.size());
}

void ct_select(bool flag, std::uint8_t* out, const std::uint8_t* a,
               const std::uint8_t* b, std::size_t len) noexcept {
  const std::uint8_t mask = ct_mask_u8(flag);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>(b[i] ^ (mask & (a[i] ^ b[i])));
  }
}

void ct_swap(bool flag, std::uint8_t* a, std::uint8_t* b,
             std::size_t len) noexcept {
  const std::uint8_t mask = ct_mask_u8(flag);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint8_t t = static_cast<std::uint8_t>(mask & (a[i] ^ b[i]));
    a[i] ^= t;
    b[i] ^= t;
  }
}

void ct_swap_u64(std::uint64_t mask, std::uint64_t* a, std::uint64_t* b,
                 std::size_t limbs) noexcept {
  for (std::size_t i = 0; i < limbs; ++i) {
    const std::uint64_t t = mask & (a[i] ^ b[i]);
    a[i] ^= t;
    b[i] ^= t;
  }
}

void secure_wipe(void* p, std::size_t len) noexcept {
  if (p == nullptr || len == 0) return;
  std::memset(p, 0, len);
  compiler_barrier(p);
}

}  // namespace cbl
