// Unit tests for byte utilities and the ChaCha20-based DRBG.
#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/ct.h"
#include "common/rng.h"

namespace cbl {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  const auto back = from_hex("0001abff7f");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Bytes, HexAcceptsUppercase) {
  const auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_FALSE(from_hex("abc").has_value());
}

TEST(Bytes, HexRejectsNonHex) {
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("0g").has_value());
}

TEST(Bytes, EmptyHex) {
  EXPECT_EQ(to_hex({}), "");
  const auto v = from_hex("");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

TEST(Bytes, ConstantTimeEq) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Bytes, StringRoundTrip) {
  const std::string s = "hello";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, EndianHelpers) {
  std::uint8_t buf[8];
  store_le64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(load_le64(buf), 0x0102030405060708ULL);
  store_be64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(load_be64(buf), 0x0102030405060708ULL);
  store_le32(buf, 0xdeadbeef);
  EXPECT_EQ(load_le32(buf), 0xdeadbeefu);
  store_be32(buf, 0xdeadbeef);
  EXPECT_EQ(load_be32(buf), 0xdeadbeefu);
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 section 2.3.2 test vector.
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                        0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::uint8_t out[64];
  chacha20_block(key, 1, nonce, out);
  const auto expected = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(Bytes(out, out + 64), *expected);
}

TEST(ChaChaRng, DeterministicUnderSeed) {
  auto rng1 = ChaChaRng::from_string_seed("seed");
  auto rng2 = ChaChaRng::from_string_seed("seed");
  EXPECT_EQ(rng1.bytes(100), rng2.bytes(100));
}

TEST(ChaChaRng, DifferentSeedsDiffer) {
  auto rng1 = ChaChaRng::from_string_seed("seed-a");
  auto rng2 = ChaChaRng::from_string_seed("seed-b");
  EXPECT_NE(rng1.bytes(32), rng2.bytes(32));
}

TEST(ChaChaRng, UnalignedReadsMatchStream) {
  auto rng1 = ChaChaRng::from_string_seed("stream");
  auto rng2 = ChaChaRng::from_string_seed("stream");
  Bytes a = rng1.bytes(130);
  Bytes b = rng2.bytes(7);
  Bytes b2 = rng2.bytes(123);
  b.insert(b.end(), b2.begin(), b2.end());
  EXPECT_EQ(a, b);
}

TEST(ChaChaRng, UniformStaysInBound) {
  auto rng = ChaChaRng::from_string_seed("uniform");
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  // With 1000 draws all 17 residues should appear.
  EXPECT_EQ(seen.size(), 17u);
}

}  // namespace
}  // namespace cbl
