// Regression tests for the locking contracts hardened by the
// thread-safety annotation sweep (src/common/thread_safety.h; DESIGN.md
// "Concurrency & locking policy"). Each test pins a behavior that an
// off-lock access could silently break and that clang's capability
// analysis now rejects at compile time:
//
//   * the distrust latch — N threads feeding one Auditor the same
//     equivocation evidence converge on exactly ONE kEquivocation
//     transition, and N threads driving ResilientClient::sync() against
//     an equivocating provider bump the distrusted counter exactly once;
//   * OprfServer read accessors (key_commitment / epoch / serves /
//     entry_count) and limiter maintenance, which used to touch guarded
//     state without the lock, stay coherent under concurrent rotation
//     and maintenance;
//   * BlocklistServiceNode::handle_frame, driven by N threads over one
//     shared QueryPipeline (the load benchmark's shape), answers every
//     query correctly and accounts for it exactly once.
//
// Designed to run under the TSan CI stage (scripts/ci.sh, stage 6).
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "net/query_pipeline.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "oprf/wire.h"
#include "tlog/tlog.h"

namespace cbl {
namespace {

using net::Freshness;
using net::ResilienceConfig;
using net::ResilientClient;

double counter_value(const char* name, obs::Labels labels) {
  return obs::MetricsRegistry::global()
      .counter(name, std::move(labels))
      .value();
}

// ---------------------------------------------------- distrust latch

TEST(DistrustLatch, AuditorConvergesOnOneEquivocation) {
  using tlog::Auditor;
  const std::string endpoint = "ts-auditor-latch";
  auto rng = ChaChaRng::from_string_seed("ts-auditor-latch");
  const auto key = nizk::SigningKey::generate(rng);
  Auditor auditor(key.pk, endpoint);

  tlog::Digest root{};
  root[0] = 0x5a;
  const auto honest = tlog::sign_checkpoint(key, 5, root, 1, rng);
  ASSERT_EQ(auditor.observe_checkpoint(honest, nullptr), Auditor::Status::kOk);

  auto other_root = root;
  other_root[7] ^= 0x20;  // same tree size, different signed root
  const auto forged = tlog::sign_checkpoint(key, 5, other_root, 1, rng);

  const auto equiv_before = counter_value("cbl_tlog_equivocations_total",
                                          {{"endpoint", endpoint}});
  const auto audit_equiv_before = counter_value(
      "cbl_tlog_audit_total",
      {{"endpoint", endpoint}, {"result", "equivocation"}});
  const auto audit_distrusted_before = counter_value(
      "cbl_tlog_audit_total",
      {{"endpoint", endpoint}, {"result", "distrusted"}});

  constexpr int kThreads = 8;
  std::vector<Auditor::Status> statuses(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> observers;
  for (int t = 0; t < kThreads; ++t) {
    observers.emplace_back([&, t] {
      while (!go.load()) {
      }
      statuses[static_cast<std::size_t>(t)] =
          auditor.observe_checkpoint(forged, nullptr);
    });
  }
  go.store(true);
  for (auto& th : observers) th.join();

  // Exactly one thread witnesses the equivocation transition; everyone
  // who arrives after the latch gets the sticky kDistrusted refusal.
  int equivocations = 0;
  int distrusted = 0;
  for (const auto status : statuses) {
    if (status == Auditor::Status::kEquivocation) ++equivocations;
    if (status == Auditor::Status::kDistrusted) ++distrusted;
  }
  EXPECT_EQ(equivocations, 1);
  EXPECT_EQ(distrusted, kThreads - 1);
  EXPECT_FALSE(auditor.trusted());

  // The counters reconcile with the transition count, not the caller
  // count: one equivocation, N-1 distrusted refusals.
  EXPECT_EQ(counter_value("cbl_tlog_equivocations_total",
                          {{"endpoint", endpoint}}) -
                equiv_before,
            1.0);
  EXPECT_EQ(counter_value("cbl_tlog_audit_total", {{"endpoint", endpoint},
                                                   {"result", "equivocation"}}) -
                audit_equiv_before,
            1.0);
  EXPECT_EQ(counter_value("cbl_tlog_audit_total", {{"endpoint", endpoint},
                                                   {"result", "distrusted"}}) -
                audit_distrusted_before,
            static_cast<double>(kThreads - 1));
}

TEST(DistrustLatch, ResilientClientCountsOneDistrustUnderConcurrentSyncs) {
  const std::string endpoint = "ts-client-latch";
  obs::ManualClock clock;
  obs::MetricsRegistry::global().set_clock(&clock);

  auto corpus_rng = ChaChaRng::from_string_seed("ts-latch-corpus");
  auto server_rng = ChaChaRng::from_string_seed("ts-latch-server");
  auto key_rng = ChaChaRng::from_string_seed("ts-latch-key");
  auto pub_rng = ChaChaRng::from_string_seed("ts-latch-pub");
  auto transport_rng = ChaChaRng::from_string_seed("ts-latch-trans");
  auto client_rng = ChaChaRng::from_string_seed("ts-latch-client");

  const auto corpus = blocklist::generate_corpus(40, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);
  const auto key = nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);
  net::Transport transport(net::TransportConfig{.latency_ms_min = 0.5,
                                                .latency_ms_max = 1.0,
                                                .drop_rate = 0.0},
                           transport_rng);
  auto node = std::make_optional<net::BlocklistServiceNode>(
      transport, endpoint, server, oprf::Oracle::fast(), net::NodeLimits(),
      nullptr, &publisher);

  ResilienceConfig config;
  config.hedge_after_ms = 0.0;  // single provider
  ResilientClient client(transport, {endpoint}, client_rng, config, &clock);
  client.pin_tlog_key(endpoint, key.pk);

  const auto distrusted_before =
      counter_value("cbl_tlog_providers_distrusted_total", {});

  // One honest verified sync establishes the checkpoint to equivocate
  // against.
  ASSERT_EQ(client.sync(), 1u);
  ASSERT_FALSE(client.distrusted(endpoint));
  const tlog::Auditor* auditor = client.tlog_auditor(endpoint);
  ASSERT_NE(auditor, nullptr);
  const auto latest = auditor->latest_checkpoint();
  ASSERT_TRUE(latest.has_value());

  // The provider turns equivocator: same tree size, different signed
  // root, served to every checkpoint fetch.
  auto other_root = latest->root;
  other_root[7] ^= 0x20;
  const auto forged = tlog::sign_checkpoint(key, latest->tree_size,
                                            other_root, latest->epoch,
                                            pub_rng);
  node.reset();
  transport.register_endpoint(
      endpoint, [&forged](ByteView frame) -> std::optional<Bytes> {
        const auto request = net::parse_request_frame(frame);
        if (request && request->method == net::Method::kTlogCheckpoint) {
          return net::encode_response_frame(net::Status::kOk,
                                            forged.to_bytes());
        }
        return net::encode_response_frame(net::Status::kBadRequest);
      });

  // N threads observe the same evidence through sync(); the per-provider
  // latch must admit exactly one kDistrusted transition.
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> syncers;
  for (int t = 0; t < kThreads; ++t) {
    syncers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < 3; ++i) (void)client.sync();
    });
  }
  go.store(true);
  for (auto& th : syncers) th.join();

  EXPECT_TRUE(client.distrusted(endpoint));
  EXPECT_EQ(counter_value("cbl_tlog_providers_distrusted_total", {}) -
                distrusted_before,
            1.0);
  // Condemned means off the wire entirely.
  EXPECT_EQ(client.sync(), 0u);
  const auto out = client.query(corpus[0]);
  EXPECT_NE(out.freshness, Freshness::kFresh);

  obs::MetricsRegistry::global().set_clock(&obs::SteadyClock::instance());
}

// ----------------------------------------- OprfServer off-lock fixes

TEST(OprfServerLocking, AccessorsStayCoherentUnderRotation) {
  auto corpus_rng = ChaChaRng::from_string_seed("ts-rot-corpus");
  const auto corpus = blocklist::generate_corpus(60, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("ts-rot-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);

  // The rotator is the only writer, so the set of commitments ever
  // published is exactly what it records; a torn or off-lock read in
  // key_commitment() would surface as a value outside this set.
  constexpr int kRotations = 8;
  std::set<ec::RistrettoPoint::Encoding> published;
  published.insert(server.key_commitment().encode());

  std::atomic<bool> stop{false};
  std::atomic<int> bad_commitments{0};
  std::atomic<int> bad_reads{0};
  std::vector<std::vector<ec::RistrettoPoint::Encoding>> seen(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      while (!stop.load()) {
        seen[static_cast<std::size_t>(t)].push_back(
            server.key_commitment().encode());
        const auto epoch = server.epoch();
        if (epoch < last_epoch) ++bad_reads;  // epochs only move forward
        last_epoch = epoch;
        if (!server.serves(corpus[static_cast<std::size_t>(t)])) ++bad_reads;
        if (server.entry_count() != corpus.size()) ++bad_reads;
      }
    });
  }
  for (int i = 0; i < kRotations; ++i) {
    server.rotate_key();
    published.insert(server.key_commitment().encode());
    // Exercise the now-locked metadata-provider setter against the
    // same reader storm (it takes the exclusive data lock).
    server.set_metadata_provider(
        i % 2 == 0 ? oprf::MetadataProvider(nullptr)
                   : oprf::MetadataProvider(
                         [](const std::string&) { return Bytes{0x01}; }));
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  for (const auto& observed : seen) {
    for (const auto& encoding : observed) {
      if (!published.contains(encoding)) ++bad_commitments;
    }
  }
  EXPECT_EQ(bad_commitments.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(published.size(), kRotations + 1u);
}

TEST(OprfServerLocking, LimiterMaintenanceRacesQueries) {
  auto corpus_rng = ChaChaRng::from_string_seed("ts-lim-corpus");
  const auto corpus = blocklist::generate_corpus(50, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("ts-lim-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);

  const std::string api_key = "wallet-key";
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> served{0};

  // Maintenance thread exercises every limiter entry point that used to
  // mutate limiter state off-lock: the on-switch, authorization churn,
  // and window turnover.
  std::thread maintenance([&] {
    for (int round = 0; round < 40; ++round) {
      server.enable_rate_limiting(1u << 20);
      server.authorize_key(api_key);
      server.advance_window();
      server.revoke_key(api_key);
      server.authorize_key(api_key);
    }
    stop.store(true);
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      auto rng =
          ChaChaRng::from_string_seed("ts-lim-client-" + std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      int q = 0;
      while (!stop.load() || q < 20) {
        const auto& target = corpus[static_cast<std::size_t>(
            (t * 17 + q) % static_cast<int>(corpus.size()))];
        auto prepared = client.prepare(target);
        prepared.request.api_key = api_key;
        try {
          const auto response = server.handle(prepared.request);
          if (!client.finish(prepared.pending, response).listed) ++wrong;
          ++served;
        } catch (const ProtocolError&) {
          // Raced a revoke window: an honest refusal, never a wrong
          // verdict.
        }
        ++q;
        if (q > 400) break;  // safety bound
      }
    });
  }
  maintenance.join();
  for (auto& th : clients) th.join();
  EXPECT_EQ(wrong.load(), 0);

  // Post-churn determinism: the key ended authorized, so a query must
  // be served, and a revoked key must be refused.
  auto rng = ChaChaRng::from_string_seed("ts-lim-final");
  oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
  auto prepared = client.prepare(corpus[0]);
  prepared.request.api_key = api_key;
  EXPECT_TRUE(client.finish(prepared.pending, server.handle(prepared.request))
                  .listed);
  server.revoke_key(api_key);
  auto refused = client.prepare(corpus[0]);
  refused.request.api_key = api_key;
  EXPECT_THROW((void)server.handle(refused.request), ProtocolError);
}

// ------------------------------------------ service node frame handler

// The node keeps no unsynchronised state of its own: concurrent frames
// meet only in the pipeline, the server and the metric counters.
TEST(ServiceNodeConcurrency, HandleFrameAnswersEveryThreadCorrectly) {
  auto corpus_rng = ChaChaRng::from_string_seed("ts-node-corpus");
  auto server_rng = ChaChaRng::from_string_seed("ts-node-server");
  auto transport_rng = ChaChaRng::from_string_seed("ts-node-trans");
  const auto corpus = blocklist::generate_corpus(64, corpus_rng).addresses();
  const std::span<const std::string> listed(corpus.data(), 32);
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(listed);
  net::QueryPipeline pipeline(server, net::PipelineOptions());
  net::Transport transport(net::TransportConfig{}, transport_rng);
  net::BlocklistServiceNode node(transport, "ts-node", server,
                                 oprf::Oracle::fast(), net::NodeLimits(),
                                 &pipeline);

  // Frames are built up front, one client per thread, so the threads
  // only contend inside handle_frame.
  constexpr int kThreads = 8;
  constexpr std::size_t kQueriesPerThread = 24;
  struct Query {
    Bytes frame;
    oprf::PendingQuery pending;
    bool listed;
  };
  std::deque<ChaChaRng> rngs;  // each client keeps a reference to one
  std::vector<std::optional<oprf::OprfClient>> clients(kThreads);
  std::vector<std::vector<Query>> queries(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    auto& rng = rngs.emplace_back(
        ChaChaRng::from_string_seed("ts-node-client-" + std::to_string(t)));
    auto& client = clients[static_cast<std::size_t>(t)].emplace(
        oprf::Oracle::fast(), 4, rng);
    for (std::size_t i = 0; i < kQueriesPerThread; ++i) {
      const std::size_t index = (static_cast<std::size_t>(t) * 7 + i * 5) %
                                corpus.size();
      auto prepared = client.prepare(corpus[index]);
      Bytes frame = {static_cast<std::uint8_t>(net::Method::kQuery)};
      append(frame, oprf::serialize(prepared.request));
      queries[static_cast<std::size_t>(t)].push_back(
          {std::move(frame), std::move(prepared.pending),
           index < listed.size()});
    }
  }

  const auto requests_before =
      counter_value("cbl_net_requests_total", {{"method", "query"}});
  const auto enqueued_before =
      counter_value("cbl_net_pipeline_enqueued_total", {});
  const auto shed_before = counter_value("cbl_net_pipeline_shed_total", {});

  std::atomic<bool> go{false};
  std::atomic<int> wrong{0};
  std::atomic<int> unanswered{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      auto& client = *clients[static_cast<std::size_t>(t)];
      for (const Query& q : queries[static_cast<std::size_t>(t)]) {
        const auto reply = node.handle_frame(q.frame);
        const auto frame =
            reply ? net::parse_response_frame(*reply) : std::nullopt;
        const auto response =
            frame && frame->status == net::Status::kOk
                ? oprf::parse_query_response(frame->body)
                : std::nullopt;
        try {
          if (!response) {
            ++unanswered;
          } else if (client.finish(q.pending, *response).listed != q.listed) {
            ++wrong;
          }
        } catch (const ProtocolError&) {
          ++unanswered;
        }
      }
    });
  }
  go.store(true);
  for (auto& th : workers) th.join();

  EXPECT_EQ(unanswered.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  const double requests =
      counter_value("cbl_net_requests_total", {{"method", "query"}}) -
      requests_before;
  EXPECT_EQ(requests, kThreads * kQueriesPerThread);
  EXPECT_EQ(requests,
            (counter_value("cbl_net_pipeline_enqueued_total", {}) -
             enqueued_before) +
                (counter_value("cbl_net_pipeline_shed_total", {}) -
                 shed_before));
}

}  // namespace
}  // namespace cbl
