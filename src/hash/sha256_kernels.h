// Internal: the SHA-256 compression kernels behind cbl::hash::Sha256.
//
// Sha256 runs one of two bodies of the same function, chosen once during
// static initialisation from CPUID: the x86 SHA extensions (SHA-NI) when
// the CPU has them, the portable C++ rounds otherwise. Both produce
// identical digests; nothing but the CPU decides which one runs. This
// header exposes each body directly so tests can compare them and the
// constant-time harness can trace them; everything else uses Sha256.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define CBL_SHA256_SHANI 1
#else
#define CBL_SHA256_SHANI 0
#endif

namespace cbl::hash::sha256_kernel {

/// Compresses `n` consecutive 64-byte blocks into `state` (a..h).
using CompressFn = void (*)(std::uint32_t state[8],
                            const std::uint8_t* blocks,
                            std::size_t n) noexcept;

void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n) noexcept;

#if CBL_SHA256_SHANI
/// Executes SHA-NI instructions: call only when shani_supported().
void compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                    std::size_t n) noexcept;
#endif

/// True when this CPU has the SHA extensions (and SSE4.1) the SHA-NI
/// body needs; always false on non-x86 builds.
bool shani_supported() noexcept;

/// The body Sha256 dispatches to: "sha-ni" or "portable".
const char* active_name() noexcept;

}  // namespace cbl::hash::sha256_kernel
