// ctcheck — dynamic constant-time verification of the crypto kernels.
//
// For every audited operation the runner holds all PUBLIC inputs fixed,
// draws a fresh SECRET input per iteration (poisoned through the cbl::ct
// taint API so the valgrind/MSan backends see it too), and records the
// control-flow trace of each run via ct/trace.h. A secret-dependent branch
// makes the traces diverge across iterations, which fails the run.
//
// Build:  cmake -DCBL_CTCHECK=ON  (instruments the crypto libraries with
//         -fsanitize-coverage=trace-pc and builds this binary).
// Run:    ctcheck              all checks
//         ctcheck --self-test  proves the harness fires on a deliberately
//                              leaky compare (and stays quiet on ct_equal)
//         ctcheck --list       lists check names
//
// Secret-indexed loads without branches are invisible to PC tracing; they
// are covered by scripts/ct_lint.py and, when available, by running this
// same binary under `valgrind --error-exitcode=1` (the poison marks map to
// memcheck "undefined" ranges, ctgrind style).

#include <cstdio>
#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "commit/pedersen.h"
#include "common/ct.h"
#include "common/rng.h"
#include "common/secret.h"
#include "ct/ct.h"
#include "ct/trace.h"
#include "ec/fe25519.h"
#include "ec/ristretto.h"
#include "ec/ristretto_kernels.h"
#include "ec/scalar.h"
#include "hash/argon2.h"
#include "hash/sha256.h"
#include "hash/sha256_kernels.h"
#include "oprf/blind.h"
#include "oprf/oracle.h"
#include "oprf/server.h"

namespace {

using namespace cbl;

// Result sink: keeps operation outputs "used" even if the harness is ever
// built with optimization.
volatile std::uint8_t g_sink = 0;

void sink(const std::uint8_t* p, std::size_t n) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc ^= p[i];
  g_sink = g_sink ^ acc;
}

struct Check {
  std::string name;
  // Runs the operation once with a fresh secret drawn from rng.
  std::function<void(Rng&)> run;
};

constexpr int kWarmupRuns = 2;
constexpr int kRecordedRuns = 6;

// Drives one check: warmups (populate lazy statics), then recorded runs
// whose trace stats must all agree. Every run gets a FRESH deterministic
// rng (different seed, identical draw pattern): the secrets differ across
// runs while the rng's own buffer-refill branches stay aligned, so any
// trace divergence is attributable to secret-dependent control flow.
bool drive(const Check& check, bool expect_divergence) {
  for (int i = 0; i < kWarmupRuns; ++i) {
    ChaChaRng rng =
        ChaChaRng::from_string_seed("ctcheck/" + check.name + "/warm" +
                                    std::to_string(i));
    check.run(rng);
  }

  ct::TraceStats first{};
  bool diverged = false;
  for (int i = 0; i < kRecordedRuns; ++i) {
    ChaChaRng rng = ChaChaRng::from_string_seed("ctcheck/" + check.name +
                                                "/" + std::to_string(i));
    ct::trace_begin();
    check.run(rng);
    const ct::TraceStats stats = ct::trace_end();
    if (i == 0) {
      first = stats;
    } else if (!(stats == first)) {
      diverged = true;
    }
  }

  const bool ok = diverged == expect_divergence;
  std::printf("  [%s] %-24s edges=%-8llu hash=%016llx%s\n", ok ? "ok" : "FAIL",
              check.name.c_str(),
              static_cast<unsigned long long>(first.edges),
              static_cast<unsigned long long>(first.hash),
              diverged ? " (trace diverged)" : "");
  return ok;
}

// --- Audited operations ----------------------------------------------------

std::vector<Check> audited_checks() {
  std::vector<Check> checks;

  checks.push_back({"scalar_mult", [](Rng& rng) {
    ec::Scalar s = ec::Scalar::random(rng);
    auto bytes = s.to_bytes();
    ct::SecretScope scope(bytes.data(), bytes.size());
    const auto enc = (ec::RistrettoPoint::base() * s).encode();
    // ct:declassify(group-element-encoding) — OPRF outputs go on the wire
    ct::declassify(enc.data(), enc.size());
    sink(enc.data(), enc.size());
  }});

  // Both scalar-multiplication bodies called directly, beside the
  // CPUID-dispatched operator* above: the serial ladder (the only one on
  // hosts without AVX-512 IFMA) and the IFMA one where the CPU has it.
  const auto scalar_mult_with = [](ec::RistrettoKernels::MulFn mul) {
    return [mul](Rng& rng) {
      static const ec::RistrettoPoint p =
          ec::RistrettoPoint::hash_to_group(to_bytes("kernel"), "ctcheck");
      ec::Scalar s = ec::Scalar::random(rng);
      auto bytes = s.to_bytes();
      ct::SecretScope scope(bytes.data(), bytes.size());
      const auto enc = mul(p, s).encode();
      // ct:declassify(group-element-encoding) — OPRF outputs go on the wire
      ct::declassify(enc.data(), enc.size());
      sink(enc.data(), enc.size());
    };
  };
  checks.push_back(
      {"scalar_mult_serial",
       scalar_mult_with(ec::RistrettoKernels::mul_serial)});
#if CBL_RISTRETTO_IFMA
  if (ec::RistrettoKernels::ifma_supported()) {
    checks.push_back({"scalar_mult_ifma",
                      scalar_mult_with(ec::RistrettoKernels::mul_ifma)});
  }
#endif

  checks.push_back({"scalar_mult_pair", [](Rng& rng) {
    // The dispatched two-point body (the 512-bit IFMA ladder where the
    // CPU has it) with two secret scalars, one per half.
    static const ec::RistrettoPoint p0 =
        ec::RistrettoPoint::hash_to_group(to_bytes("pair-0"), "ctcheck");
    static const ec::RistrettoPoint p1 =
        ec::RistrettoPoint::hash_to_group(to_bytes("pair-1"), "ctcheck");
    ec::Scalar s0 = ec::Scalar::random(rng);
    ec::Scalar s1 = ec::Scalar::random(rng);
    auto b0 = s0.to_bytes();
    auto b1 = s1.to_bytes();
    ct::SecretScope scope0(b0.data(), b0.size());
    ct::SecretScope scope1(b1.data(), b1.size());
    const auto pair = ec::RistrettoKernels::mul_pair(p0, s0, p1, s1);
    for (const auto& point : pair) {
      const auto enc = point.encode();
      // ct:declassify(group-element-encoding) — OPRF outputs go on the wire
      ct::declassify(enc.data(), enc.size());
      sink(enc.data(), enc.size());
    }
  }});

  checks.push_back({"sqrt_ratio_m1_x4", [](Rng& rng) {
    // Four Elligator-shaped ratios of secret field elements through the
    // dispatched four-lane square-root chain; which of them are squares
    // varies with the secret and must not shape the trace.
    std::array<std::uint8_t, 128> raw{};
    rng.fill(raw.data(), raw.size());
    ct::SecretScope scope(raw.data(), raw.size());
    std::array<ec::Fe25519, 4> u, v;
    for (std::size_t i = 0; i < 4; ++i) {
      std::array<std::uint8_t, 32> limb_bytes{};
      std::copy_n(raw.begin() + 32 * i, 32, limb_bytes.begin());
      u[i] = ec::Fe25519::from_bytes(limb_bytes);
      v[i] = u[i].square() + ec::Fe25519::one();
    }
    const auto roots = ec::RistrettoKernels::sqrt_ratio_m1_x4(u, v, 4);
    for (const auto& r : roots) {
      const auto out = r.root.to_bytes();
      sink(out.data(), out.size());
    }
  }});

  checks.push_back({"fe25519_invert", [](Rng& rng) {
    // Every double-and-encode pays one of these: safegcd over the
    // canonical encoding, 590 masked divsteps whatever the input.
    std::array<std::uint8_t, 32> raw{};
    rng.fill(raw.data(), raw.size());
    raw[31] &= 0x7f;
    ct::SecretScope scope(raw.data(), raw.size());
    const ec::Fe25519 x = ec::Fe25519::from_bytes(raw);
    const auto out = x.invert().to_bytes();
    sink(out.data(), out.size());
  }});

  checks.push_back({"scalar_invert", [](Rng& rng) {
    // (2r)^-1 unblinds the OPRF output: the same safegcd kernel mod l,
    // whose divstep masks and update schedule must not depend on r.
    ec::Scalar r = ec::Scalar::random(rng);
    auto rb = r.to_bytes();
    ct::SecretScope scope(rb.data(), rb.size());
    const auto out = r.invert().to_bytes();
    sink(out.data(), out.size());
  }});

  checks.push_back({"scalar_from_wide", [](Rng& rng) {
    std::array<std::uint8_t, 64> wide{};
    rng.fill(wide.data(), wide.size());
    ct::SecretScope scope(wide.data(), wide.size());
    const ec::Scalar s = ec::Scalar::from_bytes_wide(wide);
    const auto out = s.to_bytes();
    sink(out.data(), out.size());
  }});

  checks.push_back({"ristretto_decode", [](Rng& rng) {
    // A fresh valid encoding per run; validity (the public verdict) is
    // identical across runs, so the trace must be too.
    const auto enc = (ec::RistrettoPoint::base() * ec::Scalar::random(rng))
                         .encode();
    ct::SecretScope scope(const_cast<std::uint8_t*>(enc.data()), enc.size());
    const auto point = ec::RistrettoPoint::decode(enc);
    if (!point) std::abort();
    const auto out = point->encode();
    sink(out.data(), out.size());
  }});

  checks.push_back({"hash_to_group", [](Rng& rng) {
    // The queried entry is the client's secret (fixed length, varying
    // content): SHA-512 + double Elligator must not branch on it.
    Bytes entry = rng.bytes(20);
    ct::SecretScope scope(entry.data(), entry.size());
    const auto out =
        ec::RistrettoPoint::hash_to_group(entry, "ctcheck/entry").encode();
    sink(out.data(), out.size());
  }});

  checks.push_back({"oprf_blind", [](Rng& rng) {
    // The client's blind step as OprfClient runs it.
    static const ec::RistrettoPoint hashed =
        ec::RistrettoPoint::hash_to_group(to_bytes("fixed-entry"), "ctcheck");
    const Secret<ec::Scalar> r(ec::Scalar::random(rng));
    auto rb = r.expose_secret().to_bytes();
    ct::SecretScope scope(rb.data(), rb.size());
    const auto enc = oprf::blind_half(hashed, r).double_and_encode();
    // ct:declassify(blinded-query) — m = H(u)^r is sent to S
    ct::declassify(enc.data(), enc.size());
    sink(enc.data(), enc.size());
  }});

  checks.push_back({"oprf_eval", [](Rng& rng) {
    // Server side: the blinded query m is public wire data, the mask R is
    // the long-lived secret. OprfServer evaluates with its half mask R/2
    // and lets double_and_encode_batch (a batch of one here) double it.
    static const ec::RistrettoPoint blinded =
        ec::RistrettoPoint::hash_to_group(to_bytes("wire-query"), "ctcheck");
    const Secret<ec::Scalar> mask(ec::Scalar::random(rng));
    auto mb = mask.expose_secret().to_bytes();
    ct::SecretScope scope(mb.data(), mb.size());
    const ec::RistrettoPoint half = blinded * oprf::halve(mask);
    const auto enc = ec::RistrettoPoint::double_and_encode_batch(
        std::span<const ec::RistrettoPoint>(&half, 1))[0];
    // ct:declassify(evaluated-query) — psi = m^R is sent back to C
    ct::declassify(enc.data(), enc.size());
    sink(enc.data(), enc.size());
  }});

  checks.push_back({"oprf_finalize", [](Rng& rng) {
    static const ec::RistrettoPoint evaluated =
        ec::RistrettoPoint::hash_to_group(to_bytes("psi"), "ctcheck");
    const Secret<ec::Scalar> r(ec::Scalar::random(rng));
    auto rb = r.expose_secret().to_bytes();
    ct::SecretScope scope(rb.data(), rb.size());
    const auto enc = oprf::unblind(evaluated, r);
    sink(enc.data(), enc.size());
  }});

  checks.push_back({"argon2id", [](Rng& rng) {
    Bytes password = rng.bytes(32);
    ct::SecretScope scope(password.data(), password.size(),
                          ct::SecretScope::OnExit::kUnpoisonAndWipe);
    hash::Argon2Params params;
    params.memory_kib = 8;
    params.time_cost = 1;
    params.parallelism = 1;
    params.tag_length = 64;
    const Bytes tag =
        hash::argon2id(password, to_bytes("ctcheck-salt"), params);
    sink(tag.data(), tag.size());
  }});

  // Both SHA-256 compression paths: the portable body called directly
  // (the only one on hosts without SHA-NI), and HMAC through Sha256's
  // CPUID-selected kernel, as HKDF runs it on a key derived from an OPRF
  // output.
  checks.push_back({"sha256_portable", [](Rng& rng) {
    Bytes blocks = rng.bytes(128);
    ct::SecretScope scope(blocks.data(), blocks.size(),
                          ct::SecretScope::OnExit::kUnpoisonAndWipe);
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                              0xa54ff53a, 0x510e527f, 0x9b05688c,
                              0x1f83d9ab, 0x5be0cd19};
    hash::sha256_kernel::compress_portable(state, blocks.data(), 2);
    sink(reinterpret_cast<const std::uint8_t*>(state), sizeof state);
  }});

  checks.push_back({"hmac_sha256", [](Rng& rng) {
    Bytes key = rng.bytes(32);
    ct::SecretScope scope(key.data(), key.size(),
                          ct::SecretScope::OnExit::kUnpoisonAndWipe);
    const auto mac = hash::hmac_sha256(key, to_bytes("cbl/metadata-key"));
    sink(mac.data(), mac.size());
  }});

  checks.push_back({"pedersen_open", [](Rng& rng) {
    static const ec::RistrettoPoint g = ec::RistrettoPoint::base();
    static const ec::RistrettoPoint h =
        ec::RistrettoPoint::hash_to_group(to_bytes("h"), "ctcheck/crs");
    commit::Opening opening(ec::Scalar::random(rng), ec::Scalar::random(rng));
    auto vb = opening.value.expose_secret().to_bytes();
    auto rb = opening.randomness.expose_secret().to_bytes();
    ct::SecretScope sv(vb.data(), vb.size());
    ct::SecretScope sr(rb.data(), rb.size());
    const commit::Commitment c = commit::Commitment::commit(g, h, opening);
    if (!c.verify(g, h, opening)) std::abort();
    const auto enc = c.encode();
    sink(enc.data(), enc.size());
  }});

  checks.push_back({"metadata_seal_open", [](Rng& rng) {
    std::array<std::uint8_t, 32> key{};
    rng.fill(key.data(), key.size());
    ct::SecretScope scope(key.data(), key.size());
    const Bytes boxed =
        oprf::OprfServer::seal_metadata(key, to_bytes("sixteen byte msg"));
    const auto opened = oprf::OprfServer::open_metadata(key, boxed);
    if (!opened) std::abort();
    sink(opened->data(), opened->size());
  }});

  checks.push_back({"ct_equal", [](Rng& rng) {
    Bytes a = rng.bytes(64);
    Bytes b = rng.bytes(64);
    ct::SecretScope sa(a.data(), a.size());
    ct::SecretScope sb(b.data(), b.size());
    g_sink = g_sink ^ static_cast<std::uint8_t>(ct_equal(a, b));
  }});

  return checks;
}

// --- Self-test: deliberately leaky code the harness MUST flag --------------

// Early-exit comparison (the classic memcmp timing leak). noinline so the
// branch structure survives; this TU is compiled with trace-pc under
// CBL_CTCHECK, so the loop's exit edge is instrumented.
__attribute__((noinline)) bool leaky_compare(const std::uint8_t* a,
                                             const std::uint8_t* b,
                                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;  // ct:ok — deliberate leak (self-test)
  }
  return true;
}

std::vector<Check> self_test_checks() {
  std::vector<Check> checks;
  checks.push_back({"leaky_compare", [](Rng& rng) {
    std::uint8_t secret[32];
    rng.fill(secret, sizeof secret);
    ct::SecretScope scope(secret, sizeof secret);
    // The mismatch position — and so the loop's early-exit edge count —
    // is determined by the secret itself, which is exactly the signal
    // the harness must detect.
    std::uint8_t probe[32];
    std::memcpy(probe, secret, sizeof probe);
    probe[secret[0] % 32] ^= 1;
    g_sink = g_sink ^
             static_cast<std::uint8_t>(leaky_compare(secret, probe, 32));
  }});
  return checks;
}

int usage() {
  std::printf("usage: ctcheck [--self-test | --list]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else {
      return usage();
    }
  }

  const auto checks = self_test ? self_test_checks() : audited_checks();
  if (list_only) {
    for (const auto& c : checks) std::printf("%s\n", c.name.c_str());
    return 0;
  }

  std::printf(
      "ctcheck: taint backend=%s, valgrind=%s, sha256 kernel=%s, "
      "scalar-mult kernel=%s\n",
      ct::backend_name(), ct::running_on_valgrind() ? "yes" : "no",
      hash::sha256_kernel::active_name(),
      ec::RistrettoKernels::active_name());

  // Probe instrumentation: run something instrumented and see if edges
  // arrive. Without trace-pc the differ is blind and certifies nothing.
  {
    ct::trace_begin();
    ChaChaRng probe = ChaChaRng::from_string_seed("probe");
    (void)ec::Scalar::random(probe);
    (void)ct::trace_end();
  }
  if (!ct::trace_instrumented()) {
    std::printf(
        "ctcheck: FAIL — build is not instrumented with "
        "-fsanitize-coverage=trace-pc (configure with -DCBL_CTCHECK=ON)\n");
    return 2;
  }

  if (self_test) {
    std::printf("ctcheck: self-test — expecting trace divergence\n");
  } else {
    std::printf("ctcheck: %zu checks, %d recorded runs each\n", checks.size(),
                kRecordedRuns);
  }

  bool all_ok = true;
  for (const auto& check : checks) {
    all_ok &= drive(check, /*expect_divergence=*/self_test);
  }

  if (self_test && all_ok) {
    // Negative control: the hardened compare must NOT diverge.
    all_ok &= drive({"ct_equal_control", [](Rng& rng) {
                      Bytes a = rng.bytes(32);
                      Bytes b = rng.bytes(32);
                      g_sink = g_sink ^
                               static_cast<std::uint8_t>(ct_equal(a, b));
                    }},
                    /*expect_divergence=*/false);
  }

  if (!all_ok) {
    std::printf("ctcheck: FAIL — %s\n",
                self_test ? "harness did not behave as expected"
                          : "secret-dependent control flow detected");
    return 1;
  }
  std::printf("ctcheck: OK (%s)\n",
              self_test ? "harness detects injected leaks"
                        : "no secret-dependent control flow observed");
  return 0;
}
