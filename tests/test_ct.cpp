// Unit tests for the constant-time layer: the branch-free primitives in
// common/ct.h, the secret-taint API in ct/ct.h, the trace recorder in
// ct/trace.h, and the wipe() hooks on key-holding types.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "commit/pedersen.h"
#include "common/bytes.h"
#include "common/ct.h"
#include "common/rng.h"
#include "ct/ct.h"
#include "ct/trace.h"
#include "ec/fe25519.h"
#include "ec/scalar.h"

namespace cbl {
namespace {

// --- Masks and scalar selects ---------------------------------------------

TEST(CtPrimitives, MaskU64) {
  EXPECT_EQ(ct_mask_u64(true), ~std::uint64_t{0});
  EXPECT_EQ(ct_mask_u64(false), std::uint64_t{0});
}

TEST(CtPrimitives, MaskU8) {
  EXPECT_EQ(ct_mask_u8(true), std::uint8_t{0xff});
  EXPECT_EQ(ct_mask_u8(false), std::uint8_t{0});
}

TEST(CtPrimitives, SelectScalar) {
  EXPECT_EQ(ct_select_u64(true, 7, 9), 7u);
  EXPECT_EQ(ct_select_u64(false, 7, 9), 9u);
  EXPECT_EQ(ct_select_u8(true, 0xaa, 0x55), 0xaa);
  EXPECT_EQ(ct_select_u8(false, 0xaa, 0x55), 0x55);
}

// --- ct_equal --------------------------------------------------------------

TEST(CtEqual, EqualAndUnequal) {
  auto rng = ChaChaRng::from_string_seed("test_ct/ct_equal");
  const Bytes a = rng.bytes(64);
  Bytes b = a;
  EXPECT_TRUE(ct_equal(a, b));

  b[0] ^= 1;  // first byte
  EXPECT_FALSE(ct_equal(a, b));
  b[0] ^= 1;
  b[63] ^= 0x80;  // last byte, high bit
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(CtEqual, LengthMismatchIsUnequal) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3, 0};
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(CtEqual, EmptyViewsAreEqual) {
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(CtEqual, ArrayOverload) {
  std::array<std::uint8_t, 32> a{};
  std::array<std::uint8_t, 32> b{};
  a.fill(0x5c);
  b.fill(0x5c);
  EXPECT_TRUE(ct_equal(a, b));
  b[17] = 0x5d;
  EXPECT_FALSE(ct_equal(a, b));
}

// --- Byte-buffer select / swap --------------------------------------------

TEST(CtSelect, Bytes) {
  const std::uint8_t a[4] = {1, 2, 3, 4};
  const std::uint8_t b[4] = {5, 6, 7, 8};
  std::uint8_t out[4];

  ct_select(true, out, a, b, 4);
  EXPECT_EQ(0, std::memcmp(out, a, 4));
  ct_select(false, out, a, b, 4);
  EXPECT_EQ(0, std::memcmp(out, b, 4));
}

TEST(CtSelect, OutMayAliasInput) {
  std::uint8_t a[4] = {1, 2, 3, 4};
  const std::uint8_t b[4] = {5, 6, 7, 8};
  ct_select(false, a, a, b, 4);
  EXPECT_EQ(0, std::memcmp(a, b, 4));
}

TEST(CtSwap, Bytes) {
  std::uint8_t a[3] = {1, 2, 3};
  std::uint8_t b[3] = {7, 8, 9};

  ct_swap(false, a, b, 3);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[0], 7);

  ct_swap(true, a, b, 3);
  EXPECT_EQ(a[0], 7);
  EXPECT_EQ(a[2], 9);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[2], 3);
}

TEST(CtSwap, LimbVariants) {
  std::uint64_t a[2] = {10, 20};
  std::uint64_t b[2] = {30, 40};
  std::uint64_t out[2];

  ct_select_u64(ct_mask_u64(true), out, a, b, 2);
  EXPECT_EQ(out[0], 10u);
  ct_select_u64(ct_mask_u64(false), out, a, b, 2);
  EXPECT_EQ(out[1], 40u);

  // Fe25519::cmov's form: out aliases b, so a set mask copies a over it
  // and a clear mask leaves it untouched.
  std::uint64_t dst[2] = {30, 40};
  ct_select_u64(ct_mask_u64(false), dst, a, dst, 2);
  EXPECT_EQ(dst[0], 30u);
  EXPECT_EQ(dst[1], 40u);
  ct_select_u64(ct_mask_u64(true), dst, a, dst, 2);
  EXPECT_EQ(dst[0], 10u);
  EXPECT_EQ(dst[1], 20u);

  ct_swap_u64(ct_mask_u64(true), a, b, 2);
  EXPECT_EQ(a[0], 30u);
  EXPECT_EQ(b[1], 20u);
  ct_swap_u64(ct_mask_u64(false), a, b, 2);
  EXPECT_EQ(a[0], 30u);  // unchanged
}

// --- secure_wipe -----------------------------------------------------------

TEST(SecureWipe, ZeroizesBuffer) {
  std::uint8_t buf[32];
  std::memset(buf, 0xee, sizeof buf);
  secure_wipe(buf, sizeof buf);
  for (std::uint8_t v : buf) EXPECT_EQ(v, 0);
}

TEST(SecureWipe, ArrayOverload) {
  std::array<std::uint8_t, 16> a;
  a.fill(0x42);
  secure_wipe(a);
  for (std::uint8_t v : a) EXPECT_EQ(v, 0);
}

// --- Taint registry --------------------------------------------------------

class TaintTest : public ::testing::Test {
 protected:
  void SetUp() override { ct::reset_for_testing(); }
  void TearDown() override { ct::reset_for_testing(); }
};

TEST_F(TaintTest, PoisonUnpoisonRoundTrip) {
  std::uint8_t buf[64]{};
  EXPECT_FALSE(ct::is_poisoned(buf, sizeof buf));

  ct::poison(buf, sizeof buf);
  EXPECT_TRUE(ct::is_poisoned(buf, sizeof buf));
  EXPECT_TRUE(ct::is_poisoned(buf + 10, 1));  // subrange overlaps
  EXPECT_EQ(ct::poisoned_bytes(), sizeof buf);

  ct::unpoison(buf, sizeof buf);
  EXPECT_FALSE(ct::is_poisoned(buf, sizeof buf));
  EXPECT_EQ(ct::poisoned_bytes(), 0u);
}

TEST_F(TaintTest, PartialUnpoisonTrimsRange) {
  std::uint8_t buf[64]{};
  ct::poison(buf, sizeof buf);
  ct::unpoison(buf + 16, 32);  // carve a hole in the middle

  EXPECT_TRUE(ct::is_poisoned(buf, 16));
  EXPECT_FALSE(ct::is_poisoned(buf + 16, 32));
  EXPECT_TRUE(ct::is_poisoned(buf + 48, 16));
  EXPECT_EQ(ct::poisoned_bytes(), 32u);
}

TEST_F(TaintTest, NullAndZeroLengthAreNoOps) {
  ct::poison(nullptr, 16);
  std::uint8_t b;
  ct::poison(&b, 0);
  EXPECT_EQ(ct::poisoned_bytes(), 0u);
  EXPECT_FALSE(ct::is_poisoned(&b, 0));
}

TEST_F(TaintTest, DeclassifyUnpoisonsAndCounts) {
  std::uint8_t buf[8]{};
  ct::poison(buf, sizeof buf);
  const std::uint64_t before = ct::declassified_events();
  ct::declassify(buf, sizeof buf);
  EXPECT_FALSE(ct::is_poisoned(buf, sizeof buf));
  EXPECT_EQ(ct::declassified_events(), before + 1);
}

TEST_F(TaintTest, SecretScopePoisonsForItsLifetime) {
  std::uint8_t buf[16];
  std::memset(buf, 0x77, sizeof buf);
  {
    ct::SecretScope scope(buf, sizeof buf);
    EXPECT_TRUE(ct::is_poisoned(buf, sizeof buf));
  }
  EXPECT_FALSE(ct::is_poisoned(buf, sizeof buf));
  EXPECT_EQ(buf[0], 0x77);  // default exit policy does not wipe
}

TEST_F(TaintTest, SecretScopeCanWipeOnExit) {
  std::uint8_t buf[16];
  std::memset(buf, 0x77, sizeof buf);
  {
    ct::SecretScope scope(buf, sizeof buf,
                          ct::SecretScope::OnExit::kUnpoisonAndWipe);
  }
  EXPECT_FALSE(ct::is_poisoned(buf, sizeof buf));
  for (std::uint8_t v : buf) EXPECT_EQ(v, 0);
}

TEST_F(TaintTest, BackendIsReported) {
  EXPECT_NE(ct::backend_name(), nullptr);
  // Compiled-in client requests answer honestly either way; this test
  // only requires the call not to crash outside valgrind.
  (void)ct::running_on_valgrind();
}

// --- Trace recorder --------------------------------------------------------

TEST(Trace, UninstrumentedBuildRecordsNoEdges) {
  // This test binary is built WITHOUT -fsanitize-coverage=trace-pc, so the
  // recorder must see no edges and report itself as uninstrumented.
  ct::trace_begin();
  const ct::TraceStats stats = ct::trace_end();
  EXPECT_EQ(stats.edges, 0u);
  EXPECT_FALSE(ct::trace_instrumented());
}

TEST(Trace, StatsEquality) {
  const ct::TraceStats a{1, 2};
  const ct::TraceStats b{1, 2};
  const ct::TraceStats c{1, 3};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// --- wipe() hooks on key-holding types -------------------------------------

TEST(KeyHygiene, ScalarWipe) {
  auto rng = ChaChaRng::from_string_seed("test_ct/scalar_wipe");
  ec::Scalar s = ec::Scalar::random(rng);
  ASSERT_FALSE(s == ec::Scalar::zero());
  s.wipe();
  EXPECT_TRUE(s == ec::Scalar::zero());
}

TEST(KeyHygiene, Fe25519Wipe) {
  ec::Fe25519 f = ec::Fe25519::from_u64(12345);
  ASSERT_FALSE(f.is_zero());
  f.wipe();
  EXPECT_TRUE(f.is_zero());
}

TEST(KeyHygiene, OpeningDestructorCompilesWithBraceInit) {
  auto rng = ChaChaRng::from_string_seed("test_ct/opening");
  const ec::Scalar v = ec::Scalar::random(rng);
  const ec::Scalar r = ec::Scalar::random(rng);
  commit::Opening o{v, r};
  EXPECT_TRUE(o.value.expose_secret() == v);
  EXPECT_TRUE(o.randomness.expose_secret() == r);
}

}  // namespace
}  // namespace cbl
