// Taint types for secret material. `cbl::Secret<T>` is a strong wrapper
// around scalars, keys, and openings annotated `// ct:secret`: the value
// cannot convert back to T implicitly, so a secret reaching a public sink
// is a compile error unless the caller writes one of two explicit exits:
//
//  * `expose_secret()` — a taint-PRESERVING borrow. The value is still
//    secret; the borrow exists so constant-time backends (ct_equal,
//    radix-16 scalar mults, NIZK provers) can consume the bytes.
//    scripts/secret_flow_lint.py keeps tracking the value after this call.
//  * `reveal_for("reason")` — a DECLASSIFICATION. The copy it returns is
//    public from here on; the call routes through ct::declassify so every
//    dynamic taint backend (valgrind/MSan/software registry) agrees, and
//    the lint requires the reason to match a row of the DESIGN.md
//    declassification registry.
//
// The wrapper also wipes on destruction and on move-from, which keeps
// ct_lint.py's R5 (key-holder destructors must wipe) satisfied by
// construction for every swept holder.
//
// CBL_VARTIME marks functions that are variable-time by design (Straus /
// Pippenger verification paths, rejection sampling). Under clang it is a
// real AST annotation the libclang front-end of secret_flow_lint.py can
// see; elsewhere it degrades to a token the regex fallback matches. A
// CBL_VARTIME function must carry a `// vartime: public-inputs-only`
// justification (rule S4) and must never receive tainted arguments
// (rule S1).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/ct.h"
#include "ct/ct.h"

#if defined(__clang__)
#define CBL_VARTIME __attribute__((annotate("cbl::vartime")))
#else
#define CBL_VARTIME
#endif

namespace cbl {

template <typename T>
class Secret {
  static_assert(std::is_trivially_copyable_v<T>,
                "Secret<T> wipes raw bytes; T must be trivially copyable");

 public:
  Secret() noexcept : value_{} {}
  explicit Secret(const T& v) noexcept : value_(v) {}

  // Copies are allowed — key material is legitimately handed across
  // epoch snapshots — and both copies stay tainted.
  Secret(const Secret&) noexcept = default;
  Secret& operator=(const Secret&) noexcept = default;

  // Moved-from secrets are wiped, not merely unspecified: a stale copy
  // of a blinding factor is exactly the bug this type exists to prevent.
  Secret(Secret&& other) noexcept : value_(other.value_) { other.wipe(); }
  Secret& operator=(Secret&& other) noexcept {
    if (this != &other) {
      value_ = other.value_;
      other.wipe();
    }
    return *this;
  }

  ~Secret() { wipe(); }

  /// Taint-preserving borrow for constant-time backends. The result is
  /// still secret; secret_flow_lint.py tracks values through this call.
  const T& expose_secret() const noexcept { return value_; }
  T& expose_secret_mut() noexcept { return value_; }

  /// Audited declassification: the returned copy is public. `reason`
  /// must match a row of the DESIGN.md declassification registry (rule
  /// S3/S5 of secret_flow_lint.py); the ct:: call keeps the dynamic
  /// taint backends in agreement with the static story.
  T reveal_for(const char* reason) const noexcept {
    (void)reason;
    T out = value_;
    // sf:ok(generic reveal_for machinery — the reason is the caller's
    // string argument, checked against the registry at each call site)
    ct::declassify(&out, sizeof out);
    return out;
  }

  /// Best-effort zeroization (see secure_wipe for the compiler-barrier
  /// story). Also called by the destructor and on move-from.
  void wipe() noexcept { secure_wipe(&value_, sizeof value_); }

  // --- arithmetic surface (sized to what the sweep's callers need) -------
  // Results of secret-op-secret stay Secret; the group-element side of a
  // secret scalar multiplication lives behind the DL assumption and is
  // handled by operator overloads next to the point types (ristretto.h).

  Secret operator*(const Secret& rhs) const noexcept {
    return Secret(value_ * rhs.value_);
  }
  Secret operator*(const T& rhs) const noexcept {
    return Secret(value_ * rhs);
  }
  Secret operator+(const Secret& rhs) const noexcept {
    return Secret(value_ + rhs.value_);
  }
  Secret operator+(const T& rhs) const noexcept {
    return Secret(value_ + rhs);
  }
  Secret operator-(const Secret& rhs) const noexcept {
    return Secret(value_ - rhs.value_);
  }
  Secret operator-(const T& rhs) const noexcept {
    return Secret(value_ - rhs);
  }

  /// Forwarded inverse (blinding-factor unblind path): r -> r^-1, still
  /// secret.
  Secret invert() const noexcept { return Secret(value_.invert()); }

  /// Constant-time equality via the wrapped type's own operator== (the
  /// ec::Scalar one is branch-free). The verdict bit is public.
  bool operator==(const Secret& rhs) const noexcept {
    return value_ == rhs.value_;
  }

 private:
  T value_;
};

template <typename T>
Secret(T) -> Secret<T>;

}  // namespace cbl
