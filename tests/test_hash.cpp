// Unit tests for the hash substrate: FIPS 180-4 (SHA-256/512), RFC 2104
// (HMAC), RFC 5869 (HKDF), RFC 7693 (BLAKE2b), RFC 9106 (Argon2id).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "common/rng.h"
#include "hash/argon2.h"
#include "hash/blake2b.h"
#include "hash/sha256.h"
#include "hash/sha256_kernels.h"
#include "hash/sha512.h"

namespace cbl::hash {
namespace {

std::string digest_hex(const Sha256::Digest& d) {
  return to_hex(ByteView(d.data(), d.size()));
}
std::string digest_hex(const Sha512::Digest& d) {
  return to_hex(ByteView(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finalize(), Sha256::digest(msg)) << "split=" << split;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update("garbage");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(digest_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- Both compression kernels, called directly --------------------------
//
// Sha256 runs whichever kernel CPUID selected, so the tests above cover
// one path per host. These drive each kernel through the same padding,
// so both are checked wherever SHA-NI exists; the SHA-NI half skips with
// the reason when the CPU lacks it.

struct Kernel {
  const char* name;
  sha256_kernel::CompressFn compress;
};

std::vector<Kernel> kernels() {
  std::vector<Kernel> out = {{"portable", sha256_kernel::compress_portable}};
#if CBL_SHA256_SHANI
  if (sha256_kernel::shani_supported()) {
    out.push_back({"sha-ni", sha256_kernel::compress_shani});
  }
#endif
  return out;
}

/// FIPS 180-4 SHA-256 of `msg` with every block compressed by `compress`.
Sha256::Digest digest_with(sha256_kernel::CompressFn compress, ByteView msg) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = msg.size() / 64;
  compress(state, msg.data(), whole);
  Bytes tail(msg.begin() + static_cast<long>(64 * whole), msg.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  for (int shift = 56; shift >= 0; shift -= 8) {
    tail.push_back(static_cast<std::uint8_t>((msg.size() * 8) >> shift));
  }
  compress(state, tail.data(), tail.size() / 64);
  Sha256::Digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state[i]);
  return out;
}

constexpr const char* kNoShaNi =
    "CPU lacks the SHA extensions (or SSE4.1): the SHA-NI kernel cannot run "
    "on this host";

void expect_fips_vectors(sha256_kernel::CompressFn compress) {
  const std::pair<std::string, std::string> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [msg, want] : vectors) {
    EXPECT_EQ(digest_hex(digest_with(compress, to_bytes(msg))), want)
        << "length " << msg.size();
  }
}

TEST(Sha256Kernels, ActiveKernelFollowsCpuid) {
  EXPECT_STREQ(sha256_kernel::active_name(),
               sha256_kernel::shani_supported() ? "sha-ni" : "portable");
}

TEST(Sha256Kernels, PortableFips180Vectors) {
  expect_fips_vectors(sha256_kernel::compress_portable);
}

TEST(Sha256Kernels, ShaNiFips180Vectors) {
  if (!sha256_kernel::shani_supported()) GTEST_SKIP() << kNoShaNi;
#if CBL_SHA256_SHANI
  expect_fips_vectors(sha256_kernel::compress_shani);
#endif
}

TEST(Sha256Kernels, FinalizePadsLikeTheReferenceOnEveryLength) {
  // Sha256::finalize's whole-block padding against the spelled-out one,
  // across the one-block/two-block boundary (55/56) and block edges.
  Bytes msg;
  for (std::size_t len = 0; len <= 300; ++len) {
    ASSERT_EQ(Sha256::digest(msg),
              digest_with(sha256_kernel::compress_portable, msg))
        << "length " << len;
    msg.push_back(static_cast<std::uint8_t>(len * 131 + 7));
  }
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnEveryPaddingEdge) {
  if (!sha256_kernel::shani_supported()) GTEST_SKIP() << kNoShaNi;
#if CBL_SHA256_SHANI
  // 0..300 covers 55/56/63/64/119/120 and the two-block pads around them.
  Bytes msg;
  for (std::size_t len = 0; len <= 300; ++len) {
    ASSERT_EQ(digest_with(sha256_kernel::compress_shani, msg),
              digest_with(sha256_kernel::compress_portable, msg))
        << "length " << len;
    msg.push_back(static_cast<std::uint8_t>(len * 131 + 7));
  }
#endif
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomMultiBlockInputs) {
  if (!sha256_kernel::shani_supported()) GTEST_SKIP() << kNoShaNi;
#if CBL_SHA256_SHANI
  ChaChaRng rng = ChaChaRng::from_string_seed("sha256-kernels/multi-block");
  for (int round = 0; round < 64; ++round) {
    const std::size_t blocks = 1 + rng.uniform(40);
    const Bytes data = rng.bytes(64 * blocks);
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) {
      a[i] = b[i] = static_cast<std::uint32_t>(rng.next_u64());
    }
    sha256_kernel::compress_shani(a, data.data(), blocks);
    sha256_kernel::compress_portable(b, data.data(), blocks);
    ASSERT_TRUE(std::equal(a, a + 8, b)) << "round " << round;
  }
#endif
}

TEST(Sha256Kernels, StreamingAtRandomSplitsMatchesBothKernels) {
  ChaChaRng rng = ChaChaRng::from_string_seed("sha256-kernels/streaming");
  for (int round = 0; round < 200; ++round) {
    const Bytes msg = rng.bytes(rng.uniform(700));
    Sha256 h;
    for (std::size_t at = 0; at < msg.size();) {
      const std::size_t take =
          std::min<std::size_t>(msg.size() - at, rng.uniform(150));
      h.update(ByteView(msg.data() + at, take));
      at += take;
    }
    const auto streamed = h.finalize();
    for (const Kernel& k : kernels()) {
      ASSERT_EQ(streamed, digest_with(k.compress, msg))
          << k.name << ", round " << round << ", length " << msg.size();
    }
  }
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(digest_hex(Sha512::digest("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(digest_hex(Sha512::digest("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(Sha512::digest(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, StreamingMatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 300; ++i) msg.push_back(static_cast<char>('a' + i % 26));
  Sha512 h;
  h.update(msg.substr(0, 129));
  h.update(msg.substr(129));
  EXPECT_EQ(h.finalize(), Sha512::digest(msg));
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const auto mac =
      hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key of 0xaa.
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfSha256, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const auto salt = from_hex("000102030405060708090a0b0c").value();
  const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9").value();
  const auto okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfSha256, MultiBlockExpansion) {
  const auto okm = hkdf_sha256(to_bytes("ikm"), to_bytes("salt"),
                               to_bytes("info"), 100);
  EXPECT_EQ(okm.size(), 100u);
  // Prefix property: shorter output is a prefix of longer output.
  const auto okm2 = hkdf_sha256(to_bytes("ikm"), to_bytes("salt"),
                                to_bytes("info"), 64);
  EXPECT_TRUE(std::equal(okm2.begin(), okm2.end(), okm.begin()));
}

TEST(Blake2b, Rfc7693Abc) {
  EXPECT_EQ(to_hex(Blake2b::digest(to_bytes("abc"))),
            "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
            "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923");
}

TEST(Blake2b, EmptyInput) {
  EXPECT_EQ(to_hex(Blake2b::digest({})),
            "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419"
            "d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce");
}

TEST(Blake2b, VariableDigestLengthsDiffer) {
  const auto d32 = Blake2b::digest(to_bytes("x"), 32);
  const auto d64 = Blake2b::digest(to_bytes("x"), 64);
  EXPECT_EQ(d32.size(), 32u);
  EXPECT_EQ(d64.size(), 64u);
  // Truncation is NOT how blake2 shortens output; parameter block differs.
  EXPECT_FALSE(std::equal(d32.begin(), d32.end(), d64.begin()));
}

TEST(Blake2b, KeyedDiffersFromUnkeyed) {
  const Bytes key = {1, 2, 3};
  EXPECT_NE(Blake2b::digest(to_bytes("msg"), 64, key),
            Blake2b::digest(to_bytes("msg"), 64));
}

TEST(Blake2b, StreamingBoundaries) {
  // Exercise exact multiples of the 128-byte block: the last block must be
  // flagged correctly even when the input fills it exactly.
  for (std::size_t len : {0u, 1u, 127u, 128u, 129u, 255u, 256u, 257u, 1024u}) {
    Bytes msg(len, 0x5a);
    Blake2b one_shot;
    one_shot.update(msg);
    Blake2b chunked;
    for (std::size_t i = 0; i < len; i += 7) {
      const std::size_t take = std::min<std::size_t>(7, len - i);
      chunked.update(ByteView(msg.data() + i, take));
    }
    EXPECT_EQ(one_shot.finalize(), chunked.finalize()) << "len=" << len;
  }
}

TEST(Blake2b, RejectsBadParameters) {
  EXPECT_THROW(Blake2b(0), std::invalid_argument);
  EXPECT_THROW(Blake2b(65), std::invalid_argument);
  EXPECT_THROW(Blake2b(64, Bytes(65, 0)), std::invalid_argument);
}

TEST(Argon2, HprimeShortOutput) {
  // H'(x) for tag <= 64 is a length-prefixed blake2b; cross-check.
  const Bytes input = to_bytes("input");
  Bytes prefixed = {32, 0, 0, 0};
  append(prefixed, input);
  EXPECT_EQ(argon2_hprime(input, 32), Blake2b::digest(prefixed, 32));
}

TEST(Argon2, HprimeLongOutputLength) {
  EXPECT_EQ(argon2_hprime(to_bytes("seed"), 1024).size(), 1024u);
}

TEST(Argon2, Rfc9106Argon2idVector) {
  // RFC 9106 section 5.3 (Argon2id): m=32, t=3, p=4, 32-byte tag.
  const Bytes password(32, 0x01);
  const Bytes salt(16, 0x02);
  const Bytes secret(8, 0x03);
  const Bytes ad(12, 0x04);
  Argon2Params params;
  params.time_cost = 3;
  params.memory_kib = 32;
  params.parallelism = 4;
  params.tag_length = 32;
  const auto tag = argon2id(password, salt, params, secret, ad);
  EXPECT_EQ(to_hex(tag),
            "0d640df58d78766c08c037a34a8b53c9d01ef0452d75b65eb52520e96b01e659");
}

TEST(Argon2, Deterministic) {
  Argon2Params params;
  params.memory_kib = 16;
  params.parallelism = 1;
  params.time_cost = 2;
  const auto a = argon2id(to_bytes("pw"), to_bytes("somesalt"), params);
  const auto b = argon2id(to_bytes("pw"), to_bytes("somesalt"), params);
  EXPECT_EQ(a, b);
}

TEST(Argon2, DistinctInputsDistinctTags) {
  Argon2Params params;
  params.memory_kib = 16;
  params.parallelism = 1;
  params.time_cost = 1;
  const auto a = argon2id(to_bytes("pw1"), to_bytes("somesalt"), params);
  const auto b = argon2id(to_bytes("pw2"), to_bytes("somesalt"), params);
  const auto c = argon2id(to_bytes("pw1"), to_bytes("othersalt"), params);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(Argon2, ParameterValidation) {
  Argon2Params params;
  params.parallelism = 0;
  EXPECT_THROW(argon2id(to_bytes("p"), to_bytes("saltsalt"), params),
               std::invalid_argument);
  params.parallelism = 4;
  params.memory_kib = 8;  // < 8 * parallelism
  EXPECT_THROW(argon2id(to_bytes("p"), to_bytes("saltsalt"), params),
               std::invalid_argument);
  params.memory_kib = 64;
  params.time_cost = 0;
  EXPECT_THROW(argon2id(to_bytes("p"), to_bytes("saltsalt"), params),
               std::invalid_argument);
}

TEST(Argon2, TimeCostChangesOutput) {
  Argon2Params p1, p2;
  p1.memory_kib = p2.memory_kib = 16;
  p1.parallelism = p2.parallelism = 1;
  p1.time_cost = 1;
  p2.time_cost = 2;
  EXPECT_NE(argon2id(to_bytes("pw"), to_bytes("somesalt"), p1),
            argon2id(to_bytes("pw"), to_bytes("somesalt"), p2));
}

}  // namespace
}  // namespace cbl::hash
