// Tests for the private blocklist query protocol (Fig. 2): completeness,
// soundness (no false positives), k-anonymity bucketization, prefix-list
// fast path, caching (buckets and the per-bucket verdict memo), rate
// limiting, the slow oracle, and the metadata extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "metric_delta.h"
#include "oprf/blind.h"
#include "oprf/client.h"
#include "oprf/oracle.h"
#include "oprf/server.h"

namespace cbl::oprf {
namespace {

using cbl::ChaChaRng;

std::vector<std::string> test_corpus(std::size_t n, std::string_view seed) {
  auto rng = ChaChaRng::from_string_seed(seed);
  return blocklist::generate_corpus(n, rng).addresses();
}

class OprfProtocol : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = test_corpus(200, "oprf-corpus");
    server_.emplace(Oracle::fast(), /*lambda=*/3, server_rng_);
    server_->setup(corpus_);
    client_.emplace(Oracle::fast(), /*lambda=*/3, client_rng_);
  }

  bool query(const std::string& entry) {
    const auto prepared = client_->prepare(entry);
    const auto response = server_->handle(prepared.request);
    return client_->finish(prepared.pending, response).listed;
  }

  ChaChaRng server_rng_ = ChaChaRng::from_string_seed("server");
  ChaChaRng client_rng_ = ChaChaRng::from_string_seed("client");
  std::vector<std::string> corpus_;
  std::optional<OprfServer> server_;
  std::optional<OprfClient> client_;
};

TEST_F(OprfProtocol, ListedEntriesFound) {
  for (std::size_t i = 0; i < corpus_.size(); i += 17) {
    EXPECT_TRUE(query(corpus_[i])) << corpus_[i];
  }
}

TEST_F(OprfProtocol, UnlistedEntriesNotFound) {
  auto rng = ChaChaRng::from_string_seed("clean-addresses");
  for (int i = 0; i < 30; ++i) {
    const auto addr =
        blocklist::random_address(blocklist::Chain::kBitcoin, rng);
    EXPECT_FALSE(query(addr)) << addr;
  }
}

TEST_F(OprfProtocol, ServerSeesOnlyPrefixAndBlindedPoint) {
  // Two different queries with the same prefix are indistinguishable to
  // the server: the masked points are unrelated random-looking group
  // elements, and the prefix is identical by construction.
  const auto p1 = client_->prepare(corpus_[0]);
  const auto p2 = client_->prepare(corpus_[0]);  // same entry twice
  // Fresh blinding per query: even the same entry never repeats on the wire.
  EXPECT_NE(p1.request.masked_query, p2.request.masked_query);
  EXPECT_EQ(p1.request.prefix, p2.request.prefix);
}

TEST_F(OprfProtocol, KeyRotationInvalidatesCacheGracefully) {
  EXPECT_TRUE(query(corpus_[0]));
  const auto epoch_before = server_->epoch();
  server_->rotate_key();
  EXPECT_GT(server_->epoch(), epoch_before);
  // Clients keep working across rotation (cache miss path).
  EXPECT_TRUE(query(corpus_[0]));
  EXPECT_FALSE(query("1BoatSLRHtKNngkdXEeobR76b53LETtpyT"));
}

TEST_F(OprfProtocol, BucketCacheOmitsRetransmission) {
  // First query for a prefix transfers the bucket...
  const auto p1 = client_->prepare(corpus_[0]);
  EXPECT_EQ(p1.request.cached_epoch, kNoEpoch);
  const auto r1 = server_->handle(p1.request);
  EXPECT_FALSE(r1.bucket_omitted);
  (void)client_->finish(p1.pending, r1);

  // ...a second query with the same prefix does not.
  const auto p2 = client_->prepare(corpus_[0]);
  EXPECT_EQ(p2.request.cached_epoch, server_->epoch());
  const auto r2 = server_->handle(p2.request);
  EXPECT_TRUE(r2.bucket_omitted);
  EXPECT_TRUE(r2.bucket.empty());
  EXPECT_TRUE(client_->finish(p2.pending, r2).listed);
}

TEST_F(OprfProtocol, OmittedBucketWithoutCacheIsProtocolError) {
  const auto p = client_->prepare(corpus_[0]);
  QueryResponse forged;
  forged.evaluated = server_->handle(p.request).evaluated;
  forged.epoch = 999;  // an epoch the client has never seen
  forged.bucket_omitted = true;
  OprfClient fresh(Oracle::fast(), 3, client_rng_);
  EXPECT_THROW((void)fresh.finish(p.pending, forged), ProtocolError);
}

TEST_F(OprfProtocol, MalformedServerResponseRejected) {
  const auto p = client_->prepare(corpus_[0]);
  auto response = server_->handle(p.request);
  response.evaluated.fill(0xff);  // not a valid encoding
  EXPECT_THROW((void)client_->finish(p.pending, response), ProtocolError);
}

TEST_F(OprfProtocol, MalformedClientQueryRejected) {
  QueryRequest bad;
  bad.prefix = 0;
  bad.masked_query.fill(0xff);
  EXPECT_THROW((void)server_->handle(bad), ProtocolError);
}

TEST_F(OprfProtocol, OutOfRangePrefixRejected) {
  auto p = client_->prepare(corpus_[0]);
  p.request.prefix = 1u << 3;  // lambda = 3 allows [0, 8)
  EXPECT_THROW((void)server_->handle(p.request), ProtocolError);
}

TEST_F(OprfProtocol, UnsortedBucketRejected) {
  const auto p = client_->prepare(corpus_[0]);
  auto response = server_->handle(p.request);
  ASSERT_GE(response.bucket.size(), 2u);
  std::swap(response.bucket.front(), response.bucket.back());
  OprfClient fresh(Oracle::fast(), 3, client_rng_);
  EXPECT_THROW((void)fresh.finish(p.pending, response), ProtocolError);
}

TEST_F(OprfProtocol, RejectedBucketIsNotCached) {
  // A bucket the client rejects must leave no trace: were it cached, the
  // next query would send a cache hint, the server would omit the bucket,
  // and the verdict would binary-search the unsorted list.
  const auto p = client_->prepare(corpus_[0]);
  auto response = server_->handle(p.request);
  ASSERT_GE(response.bucket.size(), 2u);
  std::swap(response.bucket.front(), response.bucket.back());
  const std::size_t cached_before = client_->cached_buckets();
  EXPECT_THROW((void)client_->finish(p.pending, response), ProtocolError);
  EXPECT_EQ(client_->cached_buckets(), cached_before);

  const auto retry = client_->prepare(corpus_[0]);
  EXPECT_EQ(retry.request.cached_epoch, kNoEpoch);
  EXPECT_FALSE(retry.pending.used_cache_hint);
  const auto fresh = server_->handle(retry.request);
  EXPECT_FALSE(fresh.bucket_omitted);
  EXPECT_TRUE(client_->finish(retry.pending, fresh).listed);
}

TEST_F(OprfProtocol, PrefixListResolvesNegativesLocally) {
  client_->set_prefix_list(server_->prefix_list());
  // All listed entries must pass the filter.
  for (std::size_t i = 0; i < corpus_.size(); i += 11) {
    EXPECT_TRUE(client_->may_be_listed(corpus_[i]));
  }
  // With 200 entries in 8 buckets every prefix is occupied, so negatives
  // still require interaction at lambda=3; at higher lambda the filter
  // becomes selective (tested below).
}

TEST(OprfPrefixList, SelectiveAtHighLambda) {
  auto server_rng = ChaChaRng::from_string_seed("pl-server");
  auto client_rng = ChaChaRng::from_string_seed("pl-client");
  const auto corpus = test_corpus(50, "pl-corpus");
  OprfServer server(Oracle::fast(), 16, server_rng);
  server.setup(corpus);
  OprfClient client(Oracle::fast(), 16, client_rng);
  client.set_prefix_list(server.prefix_list());

  // All positives pass.
  for (const auto& addr : corpus) EXPECT_TRUE(client.may_be_listed(addr));

  // Almost all random negatives are filtered locally: 50 of 65536
  // prefixes occupied -> collision odds ~0.08%.
  auto rng = ChaChaRng::from_string_seed("pl-clean");
  int needs_online = 0;
  for (int i = 0; i < 200; ++i) {
    if (client.may_be_listed(
            blocklist::random_address(blocklist::Chain::kEthereum, rng))) {
      ++needs_online;
    }
  }
  EXPECT_LE(needs_online, 3);
}

TEST_F(OprfProtocol, BucketStatsReportKAnonymity) {
  const auto stats = server_->stats();
  EXPECT_EQ(stats.buckets_total, 8u);
  EXPECT_EQ(stats.buckets_nonempty, 8u);  // 200 entries, 8 buckets
  EXPECT_GE(stats.k_anonymity, 1u);
  EXPECT_LE(stats.min_size, stats.max_size);
  EXPECT_NEAR(stats.avg_size, 200.0 / 8.0, 1e-9);
}

TEST_F(OprfProtocol, RateLimiterBlocksFloods) {
  server_->enable_rate_limiting(3);
  server_->authorize_key("alice");
  client_->set_api_key("alice");

  for (int i = 0; i < 3; ++i) {
    const auto p = client_->prepare(corpus_[static_cast<std::size_t>(i)]);
    EXPECT_NO_THROW((void)server_->handle(p.request));
  }
  const auto p = client_->prepare(corpus_[3]);
  EXPECT_THROW((void)server_->handle(p.request), ProtocolError);

  // A new window resets the budget.
  server_->advance_window();
  EXPECT_NO_THROW((void)server_->handle(p.request));
}

TEST_F(OprfProtocol, UnauthorizedKeyRejected) {
  server_->enable_rate_limiting(100);
  server_->authorize_key("alice");
  server_->revoke_key("alice");
  client_->set_api_key("alice");
  const auto p = client_->prepare(corpus_[0]);
  EXPECT_THROW((void)server_->handle(p.request), ProtocolError);

  client_->set_api_key("mallory");
  const auto p2 = client_->prepare(corpus_[0]);
  EXPECT_THROW((void)server_->handle(p2.request), ProtocolError);
}

TEST(OprfSlowOracle, EndToEndWithArgon2) {
  auto server_rng = ChaChaRng::from_string_seed("slow-server");
  auto client_rng = ChaChaRng::from_string_seed("slow-client");
  hash::Argon2Params cheap;
  cheap.memory_kib = 64;  // keep the test fast; the bench uses 4 MiB
  cheap.time_cost = 1;
  const Oracle oracle = Oracle::slow(cheap);

  const auto corpus = test_corpus(20, "slow-corpus");
  OprfServer server(oracle, 2, server_rng);
  server.setup(corpus);
  OprfClient client(oracle, 2, client_rng);

  const auto prepared = client.prepare(corpus[5]);
  const auto response = server.handle(prepared.request);
  EXPECT_TRUE(client.finish(prepared.pending, response).listed);

  const auto neg = client.prepare("0x0000000000000000000000000000000000000000");
  EXPECT_FALSE(client.finish(neg.pending, server.handle(neg.request)).listed);
}

TEST(OprfSlowOracle, FastAndSlowOraclesDisagree) {
  // The two oracles define different PRFs; mixing them breaks membership,
  // which is why lambda/oracle sync between client and server matters.
  auto server_rng = ChaChaRng::from_string_seed("mix-server");
  auto client_rng = ChaChaRng::from_string_seed("mix-client");
  hash::Argon2Params cheap;
  cheap.memory_kib = 16;
  cheap.time_cost = 1;

  const auto corpus = test_corpus(10, "mix-corpus");
  OprfServer server(Oracle::slow(cheap), 2, server_rng);
  server.setup(corpus);
  OprfClient client(Oracle::fast(), 2, client_rng);  // wrong oracle
  const auto prepared = client.prepare(corpus[0]);
  const auto response = server.handle(prepared.request);
  EXPECT_FALSE(client.finish(prepared.pending, response).listed);
}

TEST(OprfMetadata, RoundTripsForListedEntries) {
  auto server_rng = ChaChaRng::from_string_seed("md-server");
  auto client_rng = ChaChaRng::from_string_seed("md-client");
  const auto corpus = test_corpus(30, "md-corpus");

  OprfServer server(Oracle::fast(), 2, server_rng);
  server.set_metadata_provider([](const std::string& entry) {
    return to_bytes("category=phishing;addr=" + entry);
  });
  server.setup(corpus);
  OprfClient client(Oracle::fast(), 2, client_rng);

  const auto prepared = client.prepare(corpus[7]);
  const auto result =
      client.finish(prepared.pending, server.handle(prepared.request));
  ASSERT_TRUE(result.listed);
  ASSERT_TRUE(result.metadata.has_value());
  EXPECT_EQ(to_string(*result.metadata), "category=phishing;addr=" + corpus[7]);
}

TEST(OprfMetadata, SealOpenRejectsTampering) {
  std::array<std::uint8_t, 32> key{};
  key[0] = 7;
  const Bytes plain = to_bytes("secret metadata");
  Bytes sealed = OprfServer::seal_metadata(key, plain);
  const auto opened = OprfServer::open_metadata(key, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plain);

  sealed[20] ^= 1;
  EXPECT_FALSE(OprfServer::open_metadata(key, sealed).has_value());

  std::array<std::uint8_t, 32> wrong_key{};
  wrong_key[0] = 8;
  sealed[20] ^= 1;
  EXPECT_FALSE(OprfServer::open_metadata(wrong_key, sealed).has_value());
  EXPECT_FALSE(OprfServer::open_metadata(key, Bytes(5, 0)).has_value());
}

// The private keyword search of Section IV-B on the server's metadata
// path: a keyword is a listed entry, its value the sealed metadata.
class OprfKeywordSearch : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.emplace(Oracle::fast(), /*lambda=*/3, server_rng_);
    server_->set_metadata_provider([this](const std::string& keyword) {
      const auto it = values_.find(keyword);
      return it == values_.end() ? Bytes{} : it->second;
    });
    for (int i = 0; i < 40; ++i) {
      values_["keyword-" + std::to_string(i)] =
          to_bytes("value-" + std::to_string(i));
    }
    build();
    client_.emplace(Oracle::fast(), /*lambda=*/3, client_rng_);
  }

  void build() {
    std::vector<std::string> keywords;
    for (const auto& [keyword, value] : values_) keywords.push_back(keyword);
    server_->setup(keywords);
  }

  // The value for `keyword`, or nullopt when the server does not hold it.
  std::optional<Bytes> lookup(const std::string& keyword) {
    const auto prepared = client_->prepare(keyword);
    const auto result = client_->finish(prepared.pending,
                                        server_->handle(prepared.request));
    if (!result.listed) return std::nullopt;
    return result.metadata;
  }

  // The keyword's tag H(keyword)^R, unblinded from a server response.
  static ec::RistrettoPoint::Encoding tag_of(const OprfClient::Prepared& p,
                                             const QueryResponse& response) {
    return unblind(*ec::RistrettoPoint::decode(response.evaluated),
                   p.pending.blinding);
  }

  ChaChaRng server_rng_ = ChaChaRng::from_string_seed("kws-server");
  ChaChaRng client_rng_ = ChaChaRng::from_string_seed("kws-client");
  std::map<std::string, Bytes> values_;
  std::optional<OprfServer> server_;
  std::optional<OprfClient> client_;
};

TEST_F(OprfKeywordSearch, HeldKeywordsResolve) {
  for (int i = 0; i < 40; i += 7) {
    const auto value = lookup("keyword-" + std::to_string(i));
    ASSERT_TRUE(value.has_value()) << i;
    EXPECT_EQ(to_string(*value), "value-" + std::to_string(i));
  }
}

TEST_F(OprfKeywordSearch, AbsentKeywordsResolveToNothing) {
  EXPECT_FALSE(lookup("keyword-99").has_value());
  EXPECT_FALSE(lookup("").has_value());
  EXPECT_FALSE(lookup("Keyword-1").has_value());  // case
}

TEST_F(OprfKeywordSearch, ServerSeesOnlyBlindedPoints) {
  const auto p1 = client_->prepare("keyword-1");
  const auto p2 = client_->prepare("keyword-1");
  // Fresh blinding each time: identical keywords are unlinkable on the wire.
  EXPECT_NE(p1.request.masked_query, p2.request.masked_query);
  EXPECT_EQ(p1.request.prefix, p2.request.prefix);  // only the prefix leaks
}

TEST_F(OprfKeywordSearch, BucketCiphertextsAreUselessWithoutTheKeyword) {
  // A nosy client receives the whole bucket but can only decrypt the
  // record whose keyword it actually holds: other ciphertexts fail
  // authentication under its derived key.
  const auto prepared = client_->prepare("keyword-2");
  const auto response = server_->handle(prepared.request);
  ASSERT_GE(response.metadata.size(), 2u);
  const auto key = OprfServer::metadata_key(tag_of(prepared, response));
  int decrypted = 0;
  for (const Bytes& sealed : response.metadata) {
    if (OprfServer::open_metadata(key, sealed)) ++decrypted;
  }
  EXPECT_EQ(decrypted, 1);
}

TEST_F(OprfKeywordSearch, MalformedInputsRejected) {
  QueryRequest bad = client_->prepare("keyword-0").request;
  bad.prefix = 1u << 3;
  EXPECT_THROW((void)server_->handle(bad), ProtocolError);
  bad.prefix = 0;
  bad.masked_query.fill(0xff);
  EXPECT_THROW((void)server_->handle(bad), ProtocolError);

  // A malformed server evaluation is rejected by the client.
  const auto prepared = client_->prepare("keyword-0");
  QueryResponse forged = server_->handle(prepared.request);
  forged.evaluated.fill(0xff);
  EXPECT_THROW((void)client_->finish(prepared.pending, forged),
               ProtocolError);
}

TEST_F(OprfKeywordSearch, RebuildReKeysEverything) {
  // Capture a record's tag under the old mask.
  const auto prepared = client_->prepare("keyword-5");
  const auto tag_before =
      tag_of(prepared, server_->handle(prepared.request));

  values_ = {{"keyword-5", to_bytes("new-value")}};
  build();
  EXPECT_EQ(server_->entry_count(), 1u);

  // Fresh lookups work against the new mask...
  const auto value = lookup("keyword-5");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(to_string(*value), "new-value");

  // ...and the rebuild genuinely re-keyed: the keyword's tag changed, so
  // keys hoarded from the old epoch open nothing in the new bucket.
  QueryRequest again = prepared.request;
  again.cached_epoch = kNoEpoch;
  const auto after = server_->handle(again);
  EXPECT_NE(tag_of(prepared, after), tag_before);
  for (const Bytes& sealed : after.metadata) {
    EXPECT_FALSE(OprfServer::open_metadata(
        OprfServer::metadata_key(tag_before), sealed));
  }
}

TEST_F(OprfKeywordSearch, BinaryValuesSurvive) {
  auto rng = ChaChaRng::from_string_seed("kws-binary");
  values_ = {{"blob", rng.bytes(1'000)}};
  build();
  const auto value = lookup("blob");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, values_["blob"]);
}

TEST(OprfSetup, ParallelMatchesSequential) {
  auto rng1 = ChaChaRng::from_string_seed("par");
  auto rng2 = ChaChaRng::from_string_seed("par");
  const auto corpus = test_corpus(64, "par-corpus");

  OprfServer seq(Oracle::fast(), 3, rng1);
  seq.setup(corpus, 1);
  OprfServer par(Oracle::fast(), 3, rng2);
  par.setup(corpus, 4);

  // Same RNG seed -> same mask R -> identical buckets.
  EXPECT_EQ(seq.prefix_list(), par.prefix_list());
  auto crng = ChaChaRng::from_string_seed("par-client");
  OprfClient client(Oracle::fast(), 3, crng);
  const auto p = client.prepare(corpus[0]);
  const auto r_seq = seq.handle(p.request);
  const auto r_par = par.handle(p.request);
  EXPECT_EQ(r_seq.bucket, r_par.bucket);
  EXPECT_EQ(r_seq.evaluated, r_par.evaluated);
}

TEST(OprfSetup, DuplicatedEntryIsUnlistedByOneRemoval) {
  auto server_rng = ChaChaRng::from_string_seed("dup-server");
  auto client_rng = ChaChaRng::from_string_seed("dup-client");
  const auto corpus = test_corpus(2, "dup-corpus");
  const std::string& a = corpus[0];
  const std::string& b = corpus[1];
  OprfServer server(Oracle::fast(), 4, server_rng);
  server.setup(std::vector<std::string>{a, a, b});
  EXPECT_EQ(server.entry_count(), 2u);
  EXPECT_EQ(server.remove_entries(std::vector<std::string>{a}), 1u);

  EXPECT_FALSE(server.serves(a));
  EXPECT_EQ(server.entry_count(), 1u);
  const auto sizes = server.bucket_sizes();
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            server.entry_count());
  OprfClient client(Oracle::fast(), 4, client_rng);
  for (const auto& [entry, listed] :
       {std::pair{a, false}, std::pair{b, true}}) {
    const auto p = client.prepare(entry);
    EXPECT_EQ(client.finish(p.pending, server.handle(p.request)).listed,
              listed)
        << entry;
  }
}

// ------------------------------------------- bucket-cache validity under churn

class OprfCacheChurn : public ::testing::Test {
 protected:
  static constexpr unsigned kLambda = 4;

  void SetUp() override {
    pool_ = test_corpus(120, "cache-churn-corpus");
    server_.emplace(Oracle::fast(), kLambda, server_rng_);
    server_->setup(std::span<const std::string>(pool_).first(80));
  }

  static std::uint32_t prefix_of(const std::string& entry) {
    return Oracle::prefix(to_bytes(entry), kLambda);
  }
  /// An unlisted pool entry whose prefix is (or is not) `prefix`.
  std::string unlisted(std::uint32_t prefix, bool same) const {
    for (std::size_t i = 80; i < pool_.size(); ++i) {
      if ((prefix_of(pool_[i]) == prefix) == same) return pool_[i];
    }
    ADD_FAILURE() << "no unlisted entry for prefix " << prefix;
    return {};
  }

  struct Answer {
    bool omitted = false;
    bool listed = false;
    bool memo_hit = false;  // the verdict skipped the unblind
    std::uint64_t advertised = kNoEpoch;
  };
  Answer ask(const std::string& entry) {
    const auto p = client_.prepare(entry);
    const auto response = server_->handle(p.request);
    Answer answer;
    answer.omitted = response.bucket_omitted;
    answer.advertised = p.request.cached_epoch;
    const test::CounterDelta hits(kMemo, {{"result", "hit"}});
    const test::CounterDelta misses(kMemo, {{"result", "miss"}});
    answer.listed = client_.finish(p.pending, response).listed;
    EXPECT_EQ(hits.value() + misses.value(), 1u);
    answer.memo_hit = hits.value() == 1;
    return answer;
  }
  static constexpr const char* kMemo = "cbl_oprf_client_verdict_memo_total";

  ChaChaRng server_rng_ = ChaChaRng::from_string_seed("cache-churn-server");
  ChaChaRng client_rng_ = ChaChaRng::from_string_seed("cache-churn-client");
  std::vector<std::string> pool_;
  std::optional<OprfServer> server_;
  OprfClient client_{Oracle::fast(), kLambda, client_rng_};
};

TEST_F(OprfCacheChurn, UnchangedBucketIsOmittedAcrossUnrelatedChanges) {
  const std::string& a = pool_[0];
  EXPECT_FALSE(ask(a).omitted);
  const std::uint64_t cached = server_->epoch();

  const std::string other = unlisted(prefix_of(a), /*same=*/false);
  ASSERT_EQ(server_->add_entries(std::vector<std::string>{other}), 1u);
  auto answer = ask(a);
  EXPECT_EQ(answer.advertised, cached);
  EXPECT_TRUE(answer.omitted);
  EXPECT_TRUE(answer.listed);

  ASSERT_EQ(server_->remove_entries(std::vector<std::string>{other}), 1u);
  answer = ask(a);
  // The omission moved the cache entry up to the epoch it was vouched at.
  EXPECT_GT(answer.advertised, cached);
  EXPECT_TRUE(answer.omitted);
  EXPECT_TRUE(answer.listed);
  EXPECT_EQ(client_.prepare(a).request.cached_epoch, server_->epoch());
}

TEST_F(OprfCacheChurn, ChangedBucketIsSentAgain) {
  const std::string& a = pool_[0];
  EXPECT_FALSE(ask(a).omitted);
  const std::string same = unlisted(prefix_of(a), /*same=*/true);
  EXPECT_FALSE(ask(same).listed);  // bucket cached; the entry is absent

  ASSERT_EQ(server_->add_entries(std::vector<std::string>{same}), 1u);
  auto answer = ask(same);
  EXPECT_FALSE(answer.omitted);
  EXPECT_TRUE(answer.listed);

  ASSERT_EQ(server_->remove_entries(std::vector<std::string>{a}), 1u);
  answer = ask(a);
  EXPECT_FALSE(answer.omitted);
  EXPECT_FALSE(answer.listed);
}

TEST_F(OprfCacheChurn, EmptiedBucketIsNeverOmitted) {
  const std::string& a = pool_[0];
  std::vector<std::string> bucket;
  for (std::size_t i = 0; i < 80; ++i) {
    if (prefix_of(pool_[i]) == prefix_of(a)) bucket.push_back(pool_[i]);
  }
  EXPECT_TRUE(ask(a).listed);
  ASSERT_EQ(server_->remove_entries(bucket), bucket.size());
  const auto prefixes = server_->prefix_list();
  ASSERT_FALSE(std::binary_search(prefixes.begin(), prefixes.end(),
                                  prefix_of(a)));
  const auto answer = ask(a);
  EXPECT_FALSE(answer.omitted);
  EXPECT_FALSE(answer.listed);
  // Still resent on the next query: the empty bucket was cached at the
  // current epoch, so only now may it be omitted.
  EXPECT_FALSE(ask(a).listed);
}

TEST_F(OprfCacheChurn, KeyRotationPreventsOmission) {
  const std::string& a = pool_[0];
  EXPECT_FALSE(ask(a).omitted);
  server_->rotate_key();
  const auto answer = ask(a);
  EXPECT_FALSE(answer.omitted);
  EXPECT_TRUE(answer.listed);
}

TEST_F(OprfCacheChurn, PreCrashCacheIsNotOmittedAfterRestoreAndSetup) {
  const std::string& a = pool_[0];
  EXPECT_FALSE(ask(a).omitted);
  const std::uint64_t served = server_->epoch();
  const std::uint64_t cached = client_.prepare(a).request.cached_epoch;
  ASSERT_EQ(cached, served);

  // Crash: a new process restores the served-epoch floor, then sets up
  // under a fresh mask, then changes an unrelated bucket.
  ChaChaRng reborn_rng = ChaChaRng::from_string_seed("cache-churn-reborn");
  server_.emplace(Oracle::fast(), kLambda, reborn_rng);
  server_->restore_epoch(served);
  QueryRequest probe = client_.prepare(a).request;
  EXPECT_FALSE(server_->handle(probe).bucket_omitted);  // restored floor
  server_->setup(std::span<const std::string>(pool_).first(80));
  const std::string other = unlisted(prefix_of(a), /*same=*/false);
  ASSERT_EQ(server_->add_entries(std::vector<std::string>{other}), 1u);
  probe = client_.prepare(a).request;
  ASSERT_EQ(probe.cached_epoch, cached);
  EXPECT_FALSE(server_->handle(probe).bucket_omitted);
  const auto answer = ask(a);
  EXPECT_FALSE(answer.omitted);
  EXPECT_TRUE(answer.listed);
}

TEST_F(OprfCacheChurn, CachedEpochAboveServerEpochIsNotOmitted) {
  const std::string& a = pool_[0];
  EXPECT_FALSE(ask(a).omitted);
  QueryRequest request = client_.prepare(a).request;
  request.cached_epoch = server_->epoch() + 1;
  EXPECT_FALSE(server_->handle(request).bucket_omitted);
  request.cached_epoch = server_->epoch();
  EXPECT_TRUE(server_->handle(request).bucket_omitted);
}

TEST_F(OprfCacheChurn, RepeatAfterChangeElsewhereIsAMemoHit) {
  const std::string& a = pool_[0];
  const std::string b = unlisted(prefix_of(a), /*same=*/true);
  EXPECT_FALSE(ask(a).memo_hit);  // bucket from the wire
  EXPECT_FALSE(ask(b).memo_hit);  // omitted, but b not yet judged
  const std::string other = unlisted(prefix_of(a), /*same=*/false);
  ASSERT_EQ(server_->add_entries(std::vector<std::string>{other}), 1u);
  for (const auto& [entry, listed] :
       {std::pair{a, true}, std::pair{b, false}}) {
    const auto answer = ask(entry);
    EXPECT_TRUE(answer.omitted);
    EXPECT_TRUE(answer.memo_hit) << entry;
    EXPECT_EQ(answer.listed, listed) << entry;
  }
}

TEST_F(OprfCacheChurn, RepeatAfterChangeInItsBucketIsAMiss) {
  const std::string& a = pool_[0];
  const std::string b = unlisted(prefix_of(a), /*same=*/true);
  EXPECT_FALSE(ask(b).listed);
  EXPECT_TRUE(ask(a).listed);
  EXPECT_TRUE(ask(b).memo_hit);

  ASSERT_EQ(server_->add_entries(std::vector<std::string>{b}), 1u);
  auto answer = ask(b);
  EXPECT_FALSE(answer.memo_hit);
  EXPECT_TRUE(answer.listed);
  answer = ask(a);  // judged again against the re-sent bucket
  EXPECT_FALSE(answer.memo_hit);
  EXPECT_TRUE(answer.listed);

  ASSERT_EQ(server_->remove_entries(std::vector<std::string>{b}), 1u);
  answer = ask(b);
  EXPECT_FALSE(answer.memo_hit);
  EXPECT_FALSE(answer.listed);
  EXPECT_TRUE(ask(b).memo_hit);
}

TEST_F(OprfCacheChurn, RepeatAfterKeyRotationIsAMiss) {
  const std::string& a = pool_[0];
  const std::string b = unlisted(prefix_of(a), /*same=*/true);
  EXPECT_TRUE(ask(a).listed);
  EXPECT_FALSE(ask(b).listed);
  server_->rotate_key();
  for (const auto& [entry, listed] :
       {std::pair{a, true}, std::pair{b, false}}) {
    const auto answer = ask(entry);
    EXPECT_FALSE(answer.memo_hit) << entry;
    EXPECT_EQ(answer.listed, listed) << entry;
  }
}

TEST_F(OprfCacheChurn, RepeatAfterRestoreAndSetupIsAMiss) {
  const std::string& a = pool_[0];
  const std::string b = unlisted(prefix_of(a), /*same=*/true);
  EXPECT_TRUE(ask(a).listed);
  EXPECT_TRUE(ask(a).memo_hit);
  // The restarted provider sets up without `a`. Another entry fetches
  // the new bucket, so `a`'s repeat is omitted and must not come from
  // the pre-crash memo.
  const std::uint64_t served = server_->epoch();
  ChaChaRng reborn_rng = ChaChaRng::from_string_seed("cache-churn-reborn");
  server_.emplace(Oracle::fast(), kLambda, reborn_rng);
  server_->restore_epoch(served);
  server_->setup(std::span<const std::string>(pool_).subspan(1, 79));
  EXPECT_FALSE(ask(b).omitted);
  const auto answer = ask(a);
  EXPECT_TRUE(answer.omitted);
  EXPECT_FALSE(answer.memo_hit);
  EXPECT_FALSE(answer.listed);
  EXPECT_TRUE(ask(a).memo_hit);
}

TEST_F(OprfCacheChurn, MemoHitStillChecksProofAndPsi) {
  const std::string& a = pool_[0];
  client_.pin_key_commitment(server_->key_commitment());
  EXPECT_TRUE(ask(a).listed);
  ASSERT_TRUE(ask(a).memo_hit);

  const test::CounterDelta hits(kMemo, {{"result", "hit"}});
  auto p = client_.prepare(a);
  auto response = server_->handle(p.request);
  ASSERT_TRUE(response.bucket_omitted);
  auto bad_proof = response;
  ASSERT_TRUE(bad_proof.evaluation_proof.has_value());
  bad_proof.evaluation_proof = server_->handle(client_.prepare(a).request)
                                   .evaluation_proof;  // another query's
  EXPECT_THROW((void)client_.finish(p.pending, bad_proof), ProtocolError);
  auto no_proof = response;
  no_proof.evaluation_proof.reset();
  EXPECT_THROW((void)client_.finish(p.pending, no_proof), ProtocolError);
  auto bad_psi = response;
  bad_psi.evaluated.fill(0xff);  // not a canonical encoding
  EXPECT_THROW((void)client_.finish(p.pending, bad_psi), ProtocolError);
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_TRUE(client_.finish(p.pending, response).listed);
  EXPECT_EQ(hits.value(), 1u);
}

TEST(OprfVerdictMemo, ListedEntryWithMetadataTakesTheFullPath) {
  auto server_rng = ChaChaRng::from_string_seed("md-memo-server");
  auto client_rng = ChaChaRng::from_string_seed("md-memo-client");
  const auto corpus = test_corpus(30, "md-memo-corpus");
  OprfServer server(Oracle::fast(), 2, server_rng);
  server.set_metadata_provider([](const std::string& entry) {
    return to_bytes("category=scam;addr=" + entry);
  });
  server.setup(corpus);
  OprfClient client(Oracle::fast(), 2, client_rng);

  const test::CounterDelta hits("cbl_oprf_client_verdict_memo_total",
                                {{"result", "hit"}});
  for (int round = 0; round < 3; ++round) {
    const auto prepared = client.prepare(corpus[7]);
    const auto response = server.handle(prepared.request);
    EXPECT_EQ(response.bucket_omitted, round > 0);
    const auto result = client.finish(prepared.pending, response);
    ASSERT_TRUE(result.listed);
    ASSERT_TRUE(result.metadata.has_value()) << "round " << round;
    EXPECT_EQ(to_string(*result.metadata), "category=scam;addr=" + corpus[7]);
  }
  EXPECT_EQ(hits.value(), 0u);
}

TEST_F(OprfCacheChurn, SeededChurnSequenceMatchesReference) {
  // 200 steps of add/remove batches, key rotations and one restart, with
  // a caching client querying after every step; each verdict is judged
  // against a reference set, memo hits included. Replays from the seed
  // printed on failure.
  constexpr std::string_view kSeed = "oprf-cache-churn-200";
  ChaChaRng rng = ChaChaRng::from_string_seed(kSeed);
  const auto draw = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_u64() % bound);
  };
  std::set<std::string> reference(pool_.begin(), pool_.begin() + 80);
  ChaChaRng reborn_rng = ChaChaRng::from_string_seed("cache-churn-reborn");
  std::size_t omitted = 0;
  const test::CounterDelta memo_hits(kMemo, {{"result", "hit"}});
  for (int step = 0; step < 200; ++step) {
    SCOPED_TRACE("seed " + std::string(kSeed) + " step " +
                 std::to_string(step));
    const std::size_t action = draw(20);
    if (step == 120) {
      const std::uint64_t served = server_->epoch();
      server_.emplace(Oracle::fast(), kLambda, reborn_rng);
      server_->restore_epoch(served);
      server_->setup(
          std::vector<std::string>(reference.begin(), reference.end()));
    } else if (action == 0) {
      server_->rotate_key();
    } else {
      std::vector<std::string> batch;
      for (std::size_t n = 0; n <= draw(3); ++n) {
        batch.push_back(pool_[draw(pool_.size())]);
      }
      if (action % 2 == 0) {
        server_->add_entries(batch);
        reference.insert(batch.begin(), batch.end());
      } else {
        server_->remove_entries(batch);
        for (const auto& entry : batch) reference.erase(entry);
      }
    }
    ASSERT_EQ(server_->entry_count(), reference.size());
    for (int q = 0; q < 3; ++q) {
      const std::string& entry = pool_[draw(pool_.size())];
      const auto answer = ask(entry);
      omitted += answer.omitted ? 1 : 0;
      ASSERT_EQ(answer.listed, reference.contains(entry)) << entry;
    }
    // One of eight hot entries, each asked every eighth step, so its
    // repeats span churn both in other buckets and in its own.
    const std::string& hot = pool_[static_cast<std::size_t>(step % 8) * 15];
    ASSERT_EQ(ask(hot).listed, reference.contains(hot)) << hot;
  }
  EXPECT_GT(omitted, 100u);  // the cache was really in play
  EXPECT_GT(memo_hits.value(), 100u);  // and so was the verdict memo
}

TEST(OprfConfig, InvalidLambdaRejected) {
  auto rng = ChaChaRng::from_string_seed("cfg");
  EXPECT_THROW(OprfServer(Oracle::fast(), 0, rng), std::invalid_argument);
  EXPECT_THROW(OprfServer(Oracle::fast(), 33, rng), std::invalid_argument);
  EXPECT_THROW(OprfClient(Oracle::fast(), 0, rng), std::invalid_argument);
  EXPECT_THROW(Oracle::prefix(to_bytes("x"), 0), std::invalid_argument);
}

// Parameterized sweep: protocol completeness/soundness across lambda.
class OprfLambdaSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(OprfLambdaSweep, CompletenessAndSoundness) {
  const unsigned lambda = GetParam();
  auto server_rng = ChaChaRng::from_string_seed("sweep-server");
  auto client_rng = ChaChaRng::from_string_seed("sweep-client");
  const auto corpus = test_corpus(60, "sweep-corpus");

  OprfServer server(Oracle::fast(), lambda, server_rng);
  server.setup(corpus);
  OprfClient client(Oracle::fast(), lambda, client_rng);

  for (std::size_t i = 0; i < corpus.size(); i += 7) {
    const auto p = client.prepare(corpus[i]);
    EXPECT_TRUE(client.finish(p.pending, server.handle(p.request)).listed);
  }
  auto rng = ChaChaRng::from_string_seed("sweep-clean");
  for (int i = 0; i < 10; ++i) {
    const auto addr = blocklist::random_address(blocklist::Chain::kBitcoin, rng);
    const auto p = client.prepare(addr);
    EXPECT_FALSE(client.finish(p.pending, server.handle(p.request)).listed);
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, OprfLambdaSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 12u));

}  // namespace
}  // namespace cbl::oprf
