// Tests for the simulated transport and the remote service node/client:
// end-to-end queries over serialized frames, parameter discovery,
// retries under loss, rate-limit surfacing, and hostile-node behaviour.
#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/clock.h"

namespace cbl::net {
namespace {

using cbl::ChaChaRng;

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = blocklist::generate_corpus(150, corpus_rng_).addresses();
    server_.emplace(oprf::Oracle::fast(), 5, server_rng_);
    server_->setup(corpus_);
  }

  Transport make_transport(double drop_rate = 0.0) {
    TransportConfig cfg;
    cfg.latency_ms_min = 1;
    cfg.latency_ms_max = 10;
    cfg.drop_rate = drop_rate;
    return Transport(cfg, transport_rng_);
  }

  ChaChaRng corpus_rng_ = ChaChaRng::from_string_seed("net-corpus");
  ChaChaRng server_rng_ = ChaChaRng::from_string_seed("net-server");
  ChaChaRng client_rng_ = ChaChaRng::from_string_seed("net-client");
  ChaChaRng transport_rng_ = ChaChaRng::from_string_seed("net-transport");
  std::vector<std::string> corpus_;
  std::optional<oprf::OprfServer> server_;
};

TEST_F(NetTest, EndToEndQueryOverTheWire) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);

  EXPECT_EQ(client.info().lambda, 5u);
  EXPECT_EQ(client.info().entry_count, corpus_.size());

  auto outcome = client.query(corpus_[3]);
  EXPECT_EQ(outcome.kind, RemoteBlocklistClient::QueryOutcome::Kind::kOk);
  EXPECT_TRUE(outcome.listed);
  EXPECT_GT(outcome.rtt_ms, 0);

  auto clean = ChaChaRng::from_string_seed("net-clean");
  outcome = client.query(
      blocklist::random_address(blocklist::Chain::kBitcoin, clean));
  EXPECT_EQ(outcome.kind, RemoteBlocklistClient::QueryOutcome::Kind::kOk);
  EXPECT_FALSE(outcome.listed);
}

TEST_F(NetTest, PrefixListSyncEnablesLocalResolution) {
  auto transport = make_transport();
  oprf::OprfServer sparse(oprf::Oracle::fast(), 18, server_rng_);
  std::vector<std::string> small(corpus_.begin(), corpus_.begin() + 30);
  sparse.setup(small);
  BlocklistServiceNode node(transport, "scamdb", sparse, oprf::Oracle::fast());
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  ASSERT_TRUE(client.sync_prefix_list());

  auto clean = ChaChaRng::from_string_seed("net-clean2");
  int local = 0;
  for (int i = 0; i < 30; ++i) {
    const auto outcome = client.query(
        blocklist::random_address(blocklist::Chain::kEthereum, clean));
    EXPECT_FALSE(outcome.listed);
    if (outcome.resolved_locally) ++local;
  }
  EXPECT_GE(local, 28);  // nearly all negatives never touch the wire
}

TEST_F(NetTest, RetriesRideOutPacketLoss) {
  auto transport = make_transport(/*drop_rate=*/0.4);
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  ResilientClient client(transport, {"scamdb"}, client_rng_);

  int fresh = 0;
  for (int i = 0; i < 20; ++i) {
    const auto outcome = client.query(corpus_[static_cast<std::size_t>(i)]);
    if (outcome.freshness == Freshness::kFresh) {
      EXPECT_TRUE(outcome.listed());
      ++fresh;
    }
  }
  // The default attempt budget rides out 40% loss: effectively
  // everything gets through.
  EXPECT_GE(fresh, 19);
  EXPECT_GT(transport.stats().drops, 0u);
}

TEST_F(NetTest, UnreachableEndpointFailsConstruction) {
  auto transport = make_transport();
  EXPECT_THROW(RemoteBlocklistClient(transport, "nope", client_rng_),
               ProtocolError);
}

TEST_F(NetTest, ZeroRetriesSurfacesUnreachable) {
  auto transport = make_transport(/*drop_rate=*/1.0);
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  EXPECT_THROW(RemoteBlocklistClient(transport, "scamdb", client_rng_),
               ProtocolError);
}

TEST_F(NetTest, RateLimitSurfacesDistinctly) {
  auto transport = make_transport();
  server_->enable_rate_limiting(1);
  server_->authorize_key("k");
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  client.set_api_key("k");

  auto first = client.query(corpus_[0]);
  EXPECT_EQ(first.kind, RemoteBlocklistClient::QueryOutcome::Kind::kOk);
  auto second = client.query(corpus_[1]);
  EXPECT_EQ(second.kind,
            RemoteBlocklistClient::QueryOutcome::Kind::kRateLimited);
}

TEST_F(NetTest, HostileNodeGarbageIsMalformedNotCrash) {
  auto transport = make_transport();
  transport.register_endpoint(
      "evil", [](ByteView frame) -> std::optional<Bytes> {
        if (!frame.empty() &&
            frame[0] == static_cast<std::uint8_t>(Method::kInfo)) {
          // A plausible hand-built info frame (lambda=4, fast oracle,
          // epoch=1, 10 entries), properly sealed so the client
          // constructs...
          const Bytes info = {4, 0, 0, 0,               // lambda
                              0,                        // oracle kind
                              0, 0, 0, 0, 0, 0, 0, 0,   // argon2 params
                              1, 0, 0, 0, 0, 0, 0, 0,   // epoch
                              10, 0, 0, 0, 0, 0, 0, 0}; // entries
          return encode_response_frame(Status::kOk, info);
        }
        // ...then answers queries with unsealed garbage: it fails the
        // frame checksum before any body parser runs.
        return Bytes{0, 0xde, 0xad, 0xbe, 0xef};
      });
  RemoteBlocklistClient client(transport, "evil", client_rng_);
  const auto outcome = client.query(corpus_[0]);
  EXPECT_EQ(outcome.kind, RemoteBlocklistClient::QueryOutcome::Kind::kMalformed);
}

TEST_F(NetTest, MalformedFramesRejectedByNode) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  // Empty frame.
  auto result = transport.call("scamdb", {});
  ASSERT_TRUE(result.delivered);
  ASSERT_FALSE(result.response.empty());
  EXPECT_EQ(result.response[0], static_cast<std::uint8_t>(Status::kBadRequest));
  // Unknown method tag.
  const Bytes bogus = {0x77, 1, 2, 3};
  result = transport.call("scamdb", bogus);
  ASSERT_TRUE(result.delivered);
  EXPECT_EQ(result.response[0], static_cast<std::uint8_t>(Status::kBadRequest));
  // Query tag with truncated body.
  const Bytes truncated = {static_cast<std::uint8_t>(Method::kQuery), 1, 2};
  result = transport.call("scamdb", truncated);
  ASSERT_TRUE(result.delivered);
  EXPECT_EQ(result.response[0], static_cast<std::uint8_t>(Status::kBadRequest));
}

// Regression: the node used to accept bodyless methods with trailing
// garbage. parse_request_frame now requires the frame to map onto the
// protocol exactly, so a kPrefixList frame with extra bytes is rejected.
TEST_F(NetTest, PrefixListRejectsTrailingBody) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  const Bytes exact = {static_cast<std::uint8_t>(Method::kPrefixList)};
  auto result = transport.call("scamdb", exact);
  ASSERT_TRUE(result.delivered);
  EXPECT_EQ(result.response[0], static_cast<std::uint8_t>(Status::kOk));

  const Bytes trailing = {static_cast<std::uint8_t>(Method::kPrefixList),
                          0xde, 0xad};
  result = transport.call("scamdb", trailing);
  ASSERT_TRUE(result.delivered);
  EXPECT_EQ(result.response[0],
            static_cast<std::uint8_t>(Status::kBadRequest));
}

// Regression: same trailing-byte acceptance existed for kInfo frames.
TEST_F(NetTest, InfoRejectsTrailingBody) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  const Bytes exact = {static_cast<std::uint8_t>(Method::kInfo)};
  auto result = transport.call("scamdb", exact);
  ASSERT_TRUE(result.delivered);
  EXPECT_EQ(result.response[0], static_cast<std::uint8_t>(Status::kOk));

  const Bytes trailing = {static_cast<std::uint8_t>(Method::kInfo), 0x00};
  result = transport.call("scamdb", trailing);
  ASSERT_TRUE(result.delivered);
  EXPECT_EQ(result.response[0],
            static_cast<std::uint8_t>(Status::kBadRequest));
}

TEST_F(NetTest, FrameParsersAreTotalOnHostileInput) {
  // Empty frames carry no tag at all.
  EXPECT_FALSE(parse_request_frame({}).has_value());
  EXPECT_FALSE(parse_response_frame({}).has_value());
  // Unknown method tags; unsealed response bytes fail the checksum gate.
  const Bytes bad_method = {0x77, 1, 2};
  EXPECT_FALSE(parse_request_frame(bad_method).has_value());
  const Bytes bad_status = {0x77, 1, 2};
  EXPECT_FALSE(parse_response_frame(bad_status).has_value());
  // Even a correctly sealed frame is rejected when its status tag is
  // unknown — the checksum authenticates bytes, not protocol validity.
  const Bytes sealed_bad_status =
      encode_response_frame(static_cast<Status>(0x77), Bytes{1, 2});
  EXPECT_FALSE(parse_response_frame(sealed_bad_status).has_value());
  // A query frame's body aliases the input without the tag byte.
  const Bytes query = {static_cast<std::uint8_t>(Method::kQuery), 9, 8, 7};
  const auto parsed = parse_request_frame(query);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, Method::kQuery);
  ASSERT_EQ(parsed->body.size(), 3u);
  EXPECT_EQ(parsed->body[0], 9);
  // Sealed status-only responses (empty body) are well-formed.
  const Bytes rate_limited = encode_response_frame(Status::kRateLimited);
  const auto response = parse_response_frame(rate_limited);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kRateLimited);
  EXPECT_TRUE(response->body.empty());
  // A single flipped bit anywhere in a sealed frame voids the whole
  // frame — this is what turns channel corruption into kMalformed.
  Bytes flipped = encode_response_frame(Status::kOk, Bytes{9, 8, 7});
  flipped[2] ^= 0x10;
  EXPECT_FALSE(parse_response_frame(flipped).has_value());
  // So does truncation, even by a single trailing byte.
  Bytes cut = encode_response_frame(Status::kOk, Bytes{9, 8, 7});
  cut.pop_back();
  EXPECT_FALSE(parse_response_frame(cut).has_value());
}

// A server under the attacker's control answers the info handshake
// honestly, then serves the configured hostile payload for everything
// else — the client must classify it, never crash or propagate.
class HostileServer {
 public:
  HostileServer(Transport& transport, std::string endpoint) {
    transport.register_endpoint(
        std::move(endpoint), [this](ByteView frame) -> std::optional<Bytes> {
          const auto request = parse_request_frame(frame);
          if (request && request->method == Method::kInfo) {
            ServiceInfo info;
            info.lambda = 5;
            info.entry_count = 10;
            return encode_response_frame(Status::kOk, encode_info(info));
          }
          return payload_;
        });
  }

  void set_payload(Bytes payload) { payload_ = std::move(payload); }

 private:
  Bytes payload_;
};

TEST_F(NetTest, ClientClassifiesTruncatedResponseFrameAsMalformed) {
  auto transport = make_transport();
  HostileServer hostile(transport, "evil");
  RemoteBlocklistClient client(transport, "evil", client_rng_);

  // Entirely empty response frame — not even a status byte.
  hostile.set_payload({});
  auto outcome = client.query(corpus_[0]);
  EXPECT_EQ(outcome.kind,
            RemoteBlocklistClient::QueryOutcome::Kind::kMalformed);

  // Correctly sealed, status kOk, but a truncated QueryResponse body —
  // passes the checksum gate and must die in the body parser instead.
  hostile.set_payload(encode_response_frame(Status::kOk, Bytes{1, 2, 3}));
  outcome = client.query(corpus_[0]);
  EXPECT_EQ(outcome.kind,
            RemoteBlocklistClient::QueryOutcome::Kind::kMalformed);
}

TEST_F(NetTest, ClientClassifiesUnknownStatusByteAsMalformed) {
  auto transport = make_transport();
  HostileServer hostile(transport, "evil");
  RemoteBlocklistClient client(transport, "evil", client_rng_);
  // Sealed so the checksum passes: rejection must come from the status
  // tag itself being unknown.
  hostile.set_payload(
      encode_response_frame(static_cast<Status>(0x77), Bytes{0xaa, 0xbb}));
  const auto outcome = client.query(corpus_[0]);
  EXPECT_EQ(outcome.kind,
            RemoteBlocklistClient::QueryOutcome::Kind::kMalformed);
}

TEST_F(NetTest, ClientRejectsOversizedLengthFieldsWithoutAllocating) {
  auto transport = make_transport();
  HostileServer hostile(transport, "evil");
  RemoteBlocklistClient client(transport, "evil", client_rng_);

  // A QueryResponse whose bucket-count field claims 2^32-1 entries with
  // no bytes behind it: the parser must refuse before reserving. Sealed,
  // so the length bomb actually reaches the body parser.
  Bytes bomb;
  bomb.insert(bomb.end(), 32, 0x00);              // "evaluated" encoding
  bomb.insert(bomb.end(), 8, 0x00);               // epoch
  bomb.push_back(0);                              // bucket_omitted = false
  bomb.insert(bomb.end(), {0xff, 0xff, 0xff, 0xff});  // bucket count
  hostile.set_payload(encode_response_frame(Status::kOk, bomb));
  const auto outcome = client.query(corpus_[0]);
  EXPECT_EQ(outcome.kind,
            RemoteBlocklistClient::QueryOutcome::Kind::kMalformed);

  // Same attack against the prefix-list download path.
  const Bytes list_bomb = {0xff, 0xff, 0xff, 0x0f};
  hostile.set_payload(encode_response_frame(Status::kOk, list_bomb));
  EXPECT_FALSE(client.sync_prefix_list());
}

TEST_F(NetTest, SyncPrefixListRejectsTrailingJunk) {
  auto transport = make_transport();
  HostileServer hostile(transport, "evil");
  RemoteBlocklistClient client(transport, "evil", client_rng_);
  // A well-formed (empty) prefix list followed by trailing junk must be
  // rejected whole — parsers accept no trailing bytes. Sealed, so the
  // rejection is the body parser's, not the checksum's.
  const Bytes body = {0, 0, 0, 0, 0xcc};
  hostile.set_payload(encode_response_frame(Status::kOk, body));
  EXPECT_FALSE(client.sync_prefix_list());
}

TEST_F(NetTest, TransportAccountsBytes) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  (void)client.query(corpus_[0]);
  EXPECT_GT(transport.stats().bytes_sent, 0u);
  EXPECT_GT(transport.stats().bytes_received, transport.stats().bytes_sent);
  EXPECT_GE(transport.stats().calls, 2u);  // info + query
}

TEST_F(NetTest, TransportBreaksStatsDownPerEndpoint) {
  auto transport = make_transport();
  BlocklistServiceNode node_a(transport, "provider-a", *server_,
                              oprf::Oracle::fast());
  BlocklistServiceNode node_b(transport, "provider-b", *server_,
                              oprf::Oracle::fast());
  RemoteBlocklistClient client_a(transport, "provider-a", client_rng_);
  RemoteBlocklistClient client_b(transport, "provider-b", client_rng_);
  (void)client_a.query(corpus_[0]);
  (void)client_a.query(corpus_[1]);
  (void)client_b.query(corpus_[2]);

  const auto a = transport.endpoint_stats("provider-a");
  const auto b = transport.endpoint_stats("provider-b");
  EXPECT_GT(a.calls, b.calls);  // two queries vs one, plus discovery each
  EXPECT_GT(a.bytes_sent, 0u);
  EXPECT_GT(b.bytes_sent, 0u);
  // Per-endpoint stats partition the global aggregate exactly.
  EXPECT_EQ(a.calls + b.calls, transport.stats().calls);
  EXPECT_EQ(a.bytes_sent + b.bytes_sent, transport.stats().bytes_sent);
  EXPECT_EQ(a.bytes_received + b.bytes_received,
            transport.stats().bytes_received);
  EXPECT_EQ(transport.stats_by_endpoint().size(), 2u);
  // Unknown endpoints report zero (and are attributed if actually called).
  EXPECT_EQ(transport.endpoint_stats("nowhere").calls, 0u);
  (void)transport.call("nowhere", Bytes{1});
  EXPECT_EQ(transport.endpoint_stats("nowhere").calls, 1u);
  EXPECT_EQ(transport.endpoint_stats("nowhere").drops, 1u);
}

TEST_F(NetTest, TransportResetStatsZeroesAllAccounting) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  (void)client.query(corpus_[0]);
  ASSERT_GT(transport.stats().calls, 0u);
  transport.reset_stats();
  EXPECT_EQ(transport.stats().calls, 0u);
  EXPECT_EQ(transport.stats().bytes_sent, 0u);
  EXPECT_EQ(transport.endpoint_stats("scamdb").calls, 0u);
  // Accounting resumes cleanly after the reset.
  (void)client.query(corpus_[1]);
  EXPECT_EQ(transport.endpoint_stats("scamdb").calls,
            transport.stats().calls);
}

// The two legs of a lossy call are sampled independently, so the stats
// split request-leg losses (server never saw the frame) from
// response-leg losses (server worked, reply lost) — and request bytes
// count as sent whenever the request leg survived.
TEST_F(NetTest, TransportSplitsDropLegsAndKeepsAggregateLoss) {
  auto transport = make_transport(/*drop_rate=*/0.5);
  transport.register_endpoint("echo",
                              [](ByteView request) -> std::optional<Bytes> {
                                return Bytes(request.begin(), request.end());
                              });
  const Bytes request = {1, 2, 3};
  for (int i = 0; i < 400; ++i) (void)transport.call("echo", request);

  const auto stats = transport.endpoint_stats("echo");
  EXPECT_EQ(stats.calls, 400u);
  EXPECT_GT(stats.drops_request, 0u);
  EXPECT_GT(stats.drops_response, 0u);
  EXPECT_EQ(stats.drops, stats.drops_request + stats.drops_response);
  // Aggregate loss stays ~drop_rate (200 of 400; generous 3-sigma+ band).
  EXPECT_GT(stats.drops, 150u);
  EXPECT_LT(stats.drops, 250u);
  // Bytes hit the wire on every call that survived the request leg,
  // including the ones whose response was then lost.
  EXPECT_EQ(stats.bytes_sent,
            (stats.calls - stats.drops_request) * request.size());
  EXPECT_EQ(stats.bytes_received,
            (stats.calls - stats.drops) * request.size());
  // The split is mirrored onto the obs registry.
  auto& registry = obs::MetricsRegistry::global();
  EXPECT_GE(registry
                .counter("cbl_net_drops_request_total",
                         {{"endpoint", "echo"}})
                .value(),
            stats.drops_request);
  EXPECT_GE(registry
                .counter("cbl_net_drops_response_total",
                         {{"endpoint", "echo"}})
                .value(),
            stats.drops_response);
}

// Regression: a handler returning nullopt used to be indistinguishable
// from a successful empty response. It is now a delivered error with its
// own accounting.
TEST_F(NetTest, HandlerRejectionIsADeliveredErrorAndCounted) {
  auto& rejected_total = obs::MetricsRegistry::global().counter(
      "cbl_net_rejected_total", {{"endpoint", "picky"}});
  const auto before = rejected_total.value();

  auto transport = make_transport();
  transport.register_endpoint(
      "picky", [](ByteView) -> std::optional<Bytes> { return std::nullopt; });
  const auto result = transport.call("picky", Bytes{1});
  EXPECT_TRUE(result.delivered);
  EXPECT_TRUE(result.rejected);
  EXPECT_TRUE(result.response.empty());
  EXPECT_EQ(transport.endpoint_stats("picky").rejected, 1u);
  EXPECT_EQ(transport.stats().drops, 0u);  // not a drop: the server spoke
  EXPECT_EQ(rejected_total.value(), before + 1);
}

// kRateLimited round-trips through the wire with its retry-after hint,
// and the client outcome counters keep rate-limited, unreachable and ok
// distinguishable on a dashboard.
TEST_F(NetTest, RateLimitedRoundTripCarriesRetryAfterHint) {
  using Kind = RemoteBlocklistClient::QueryOutcome::Kind;
  auto& registry = obs::MetricsRegistry::global();
  const auto kind_counter = [&](const char* kind) {
    return &registry.counter("cbl_net_client_outcomes_total",
                             {{"endpoint", "scamdb"}, {"kind", kind}});
  };
  const auto ok_before = kind_counter("ok")->value();
  const auto limited_before = kind_counter("rate_limited")->value();
  const auto unreachable_before = kind_counter("unreachable")->value();

  auto transport = make_transport();
  server_->enable_rate_limiting(1);
  server_->authorize_key("k");
  NodeLimits limits;
  limits.retry_after_hint_ms = 750;
  auto node = std::make_optional<BlocklistServiceNode>(
      transport, "scamdb", *server_, oprf::Oracle::fast(), limits);
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  client.set_api_key("k");

  const auto first = client.query(corpus_[0]);
  EXPECT_EQ(first.kind, Kind::kOk);
  EXPECT_EQ(first.retry_after_ms, 0u);

  const auto second = client.query(corpus_[1]);
  EXPECT_EQ(second.kind, Kind::kRateLimited);
  EXPECT_EQ(second.retry_after_ms, 750u);

  node.reset();  // crash: endpoint gone, queries become unreachable
  const auto third = client.query(corpus_[2]);
  EXPECT_EQ(third.kind, Kind::kUnreachable);

  EXPECT_EQ(kind_counter("ok")->value(), ok_before + 1);
  EXPECT_EQ(kind_counter("rate_limited")->value(), limited_before + 1);
  EXPECT_EQ(kind_counter("unreachable")->value(), unreachable_before + 1);
}

/// Rewrites the request inside every kQuery frame before forwarding it,
/// so a well-behaved client can be made to send an invalid query.
class QueryTamperingChannel final : public Channel {
 public:
  QueryTamperingChannel(Channel& inner,
                        std::function<void(oprf::QueryRequest&)> tamper)
      : inner_(inner), tamper_(std::move(tamper)) {}

  CallResult call(const std::string& endpoint, ByteView frame) override {
    const auto parsed = parse_request_frame(frame);
    if (!parsed || parsed->method != Method::kQuery) {
      return inner_.call(endpoint, frame);
    }
    auto request = oprf::parse_query_request(parsed->body);
    if (!request) return inner_.call(endpoint, frame);
    tamper_(*request);
    Bytes rewritten = {static_cast<std::uint8_t>(Method::kQuery)};
    append(rewritten, oprf::serialize(*request));
    return inner_.call(endpoint, rewritten);
  }

 private:
  Channel& inner_;
  std::function<void(oprf::QueryRequest&)> tamper_;
};

// Regression: a node built without a pipeline used to answer every
// ProtocolError from OprfServer::handle as kRateLimited, retry-after hint
// attached — so a query that can never succeed told the client to back
// off and try again. Invalid queries are kBadRequest with no body.
TEST_F(NetTest, InvalidQueriesAreBadRequestNotRateLimited) {
  using Kind = RemoteBlocklistClient::QueryOutcome::Kind;
  auto& registry = obs::MetricsRegistry::global();
  auto& bad_request =
      registry.counter("cbl_net_responses_total", {{"status", "bad_request"}});
  auto& rate_limited = registry.counter("cbl_net_responses_total",
                                        {{"status", "rate_limited"}});

  auto transport = make_transport();
  NodeLimits limits;
  limits.retry_after_hint_ms = 750;
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast(), limits);

  const std::vector<std::pair<const char*,
                              std::function<void(oprf::QueryRequest&)>>>
      invalid = {
          {"non-canonical point",
           [](oprf::QueryRequest& r) { r.masked_query.fill(0xff); }},
          {"prefix >= 2^lambda",
           [](oprf::QueryRequest& r) { r.prefix = 1u << 5; }},  // lambda 5
      };
  for (const auto& [what, tamper] : invalid) {
    SCOPED_TRACE(what);
    oprf::OprfClient oprf_client(oprf::Oracle::fast(), 5, client_rng_);
    auto request = oprf_client.prepare(corpus_[0]).request;
    tamper(request);
    Bytes frame = {static_cast<std::uint8_t>(Method::kQuery)};
    append(frame, oprf::serialize(request));

    const auto bad_before = bad_request.value();
    const auto limited_before = rate_limited.value();
    const auto result = transport.call("scamdb", frame);
    ASSERT_TRUE(result.delivered);
    const auto response = parse_response_frame(result.response);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kBadRequest);
    EXPECT_TRUE(response->body.empty());  // no retry-after hint
    EXPECT_EQ(bad_request.value(), bad_before + 1);
    EXPECT_EQ(rate_limited.value(), limited_before);

    QueryTamperingChannel channel(transport, tamper);
    RemoteBlocklistClient client(channel, "scamdb", client_rng_);
    const auto outcome = client.query(corpus_[0]);
    EXPECT_EQ(outcome.kind, Kind::kMalformed);
    EXPECT_EQ(outcome.retry_after_ms, 0u);
  }
}

// The resilient client honors kRateLimited: it backs off (at least the
// server's hint) instead of hammering, never trips the breaker over it,
// and serves the deadline-exceeded query honestly from cache.
TEST_F(NetTest, ResilientClientBacksOffOnRateLimited) {
  obs::ManualClock clock;
  auto& registry = obs::MetricsRegistry::global();
  auto& backoff_total =
      registry.counter("cbl_net_resilient_backoff_ms_total", {});
  auto& stale_total = registry.counter("cbl_net_resilient_answers_total",
                                       {{"freshness", "stale_cache"}});

  auto transport = make_transport();
  server_->enable_rate_limiting(1);
  server_->authorize_key("k");
  NodeLimits limits;
  limits.retry_after_hint_ms = 400;
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast(), limits);

  ResilienceConfig config;
  config.max_attempts = 3;
  config.attempt_timeout_ms = 1e6;  // irrelevant here
  config.call_deadline_ms = 1e6;
  config.hedge_after_ms = 0.0;  // single provider
  ResilientClient client(transport, {"scamdb"}, client_rng_, config, &clock);
  client.set_api_key("k");

  const auto fresh = client.query(corpus_[0]);
  EXPECT_EQ(fresh.verdict, ResilientClient::Outcome::Verdict::kListed);
  EXPECT_EQ(fresh.freshness, Freshness::kFresh);

  const auto backoff_before = backoff_total.value();
  const auto stale_before = stale_total.value();
  const double t0 = client.now_ms();
  const auto limited = client.query(corpus_[0]);  // window exhausted
  // Degraded — but the verdict is still right, served from cache and
  // labelled as such.
  EXPECT_EQ(limited.verdict, ResilientClient::Outcome::Verdict::kListed);
  EXPECT_EQ(limited.freshness, Freshness::kStaleCache);
  EXPECT_EQ(limited.last_error,
            RemoteBlocklistClient::QueryOutcome::Kind::kRateLimited);
  EXPECT_EQ(limited.attempts, 3u);
  // Every retry waited at least the server's 400ms hint (> the jitter
  // cap would ever produce on its own here), in virtual time.
  EXPECT_GE(client.now_ms() - t0, 3 * 400.0);
  EXPECT_GE(backoff_total.value() - backoff_before, 3 * 400u);
  EXPECT_EQ(stale_total.value() - stale_before, 1u);
  // Rate limiting is liveness, not failure: the breaker stayed closed.
  EXPECT_EQ(client.breaker_state("scamdb"), CircuitBreaker::State::kClosed);

  // A fresh window serves normally again.
  server_->advance_window();
  const auto after = client.query(corpus_[1]);
  EXPECT_EQ(after.freshness, Freshness::kFresh);
}

// Breaker lifecycle against a crashing provider: consecutive failures
// trip it open (no further traffic), a cooled-off probe half-opens it,
// and a successful probe closes it again.
TEST_F(NetTest, ResilientClientBreakerOpensAndRecovers) {
  obs::ManualClock clock;
  auto transport = make_transport();
  auto node = std::make_optional<BlocklistServiceNode>(
      transport, "scamdb", *server_, oprf::Oracle::fast());

  ResilienceConfig config;
  config.max_attempts = 2;
  config.attempt_timeout_ms = 1e6;
  config.call_deadline_ms = 1e6;
  config.hedge_after_ms = 0.0;
  config.breaker.failure_threshold = 3;
  config.breaker.open_ms = 500.0;
  ResilientClient client(transport, {"scamdb"}, client_rng_, config, &clock);

  ASSERT_EQ(client.query(corpus_[0]).freshness, Freshness::kFresh);
  node.reset();  // crash

  // Two failing queries = 4 consecutive failures >= threshold 3: open.
  (void)client.query(corpus_[0]);
  const auto degraded = client.query(corpus_[0]);
  EXPECT_EQ(degraded.freshness, Freshness::kStaleCache);
  EXPECT_EQ(degraded.verdict, ResilientClient::Outcome::Verdict::kListed);
  EXPECT_EQ(client.breaker_state("scamdb"), CircuitBreaker::State::kOpen);

  // Open means *no traffic*: the transport sees nothing, the caller
  // still gets an honest degraded answer.
  const auto calls_before = transport.stats().calls;
  const auto shed = client.query(corpus_[0]);
  EXPECT_EQ(transport.stats().calls, calls_before);
  EXPECT_EQ(shed.freshness, Freshness::kStaleCache);
  EXPECT_EQ(shed.attempts, 0u);

  // Service restored + cool-off elapsed: the half-open probe succeeds
  // and closes the breaker.
  node.emplace(transport, "scamdb", *server_, oprf::Oracle::fast());
  clock.advance_ms(600);
  const auto recovered = client.query(corpus_[0]);
  EXPECT_EQ(recovered.freshness, Freshness::kFresh);
  EXPECT_EQ(client.breaker_state("scamdb"),
            CircuitBreaker::State::kClosed);
}

TEST_F(NetTest, SlowOracleParametersPropagate) {
  hash::Argon2Params params;
  params.memory_kib = 64;
  params.time_cost = 1;
  const auto oracle = oprf::Oracle::slow(params);
  oprf::OprfServer slow_server(oracle, 3, server_rng_);
  std::vector<std::string> small(corpus_.begin(), corpus_.begin() + 20);
  slow_server.setup(small);

  auto transport = make_transport();
  BlocklistServiceNode node(transport, "slowdb", slow_server, oracle);
  RemoteBlocklistClient client(transport, "slowdb", client_rng_);
  EXPECT_EQ(client.info().oracle_kind, 1);
  EXPECT_EQ(client.info().argon2_memory_kib, 64u);
  // The client mirrored the slow oracle, so membership works end to end.
  const auto outcome = client.query(small[7]);
  EXPECT_EQ(outcome.kind, RemoteBlocklistClient::QueryOutcome::Kind::kOk);
  EXPECT_TRUE(outcome.listed);
}

}  // namespace
}  // namespace cbl::net
