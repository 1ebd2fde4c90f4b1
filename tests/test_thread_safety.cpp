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
//     query correctly and accounts for it exactly once;
//   * EpochPublisher, shared by two nodes whose wallets sync while the
//     list changes, answers each sync from one publication: every
//     wallet stays trusted and converges on the server's buckets.
//
// Designed to run under the TSan CI stage (scripts/ci.sh, stage 6).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "metric_delta.h"
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

using test::CounterDelta;

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

  const CounterDelta equiv_total("cbl_tlog_equivocations_total",
                                 {{"endpoint", endpoint}});
  const CounterDelta audit_equiv(
      "cbl_tlog_audit_total",
      {{"endpoint", endpoint}, {"result", "equivocation"}});
  const CounterDelta audit_distrusted(
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
  EXPECT_EQ(equiv_total.value(), 1u);
  EXPECT_EQ(audit_equiv.value(), 1u);
  EXPECT_EQ(audit_distrusted.value(),
            static_cast<std::uint64_t>(kThreads - 1));
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

  const auto corpus = blocklist::generate_corpus(60, corpus_rng).addresses();
  const auto listed = std::span<const std::string>(corpus).first(40);
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(listed);
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

  const CounterDelta distrusted("cbl_tlog_providers_distrusted_total");

  // One honest verified sync establishes the checkpoint to equivocate
  // against.
  ASSERT_EQ(client.sync(), 1u);
  ASSERT_FALSE(client.distrusted(endpoint));
  const tlog::Auditor* auditor = client.tlog_auditor(endpoint);
  ASSERT_NE(auditor, nullptr);

  // Queries beside syncs: the query threads read buckets from the mirror
  // (Auditor::mutex_ under the client's mutex_) while the sync thread
  // folds list changes into it and re-feeds the query cache.
  {
    const CounterDelta reads("cbl_oprf_client_mirror_reads_total",
                             {{"result", "read"}});
    std::atomic<int> wrong{0};
    std::thread syncer([&] {
      for (std::size_t i = 40; i < corpus.size(); i += 5) {
        server.add_entries(std::span<const std::string>(corpus).subspan(i, 5));
        (void)client.sync();
      }
    });
    std::vector<std::thread> queriers;
    for (int t = 0; t < 2; ++t) {
      queriers.emplace_back([&] {
        for (int round = 0; round < 2; ++round) {
          for (const auto& entry : listed) {
            const auto out = client.query(entry);
            if (out.freshness != Freshness::kFresh || !out.listed()) ++wrong;
          }
        }
      });
    }
    syncer.join();
    for (auto& th : queriers) th.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_GT(reads.value(), 0u);
    ASSERT_EQ(client.sync(), 1u);
    ASSERT_FALSE(client.distrusted(endpoint));
  }

  const auto latest = auditor->latest_checkpoint();
  ASSERT_TRUE(latest.has_value());

  // The provider turns equivocator: same tree size, different signed
  // root, served in every sync bundle.
  auto other_root = latest->root;
  other_root[7] ^= 0x20;
  const auto forged = tlog::sign_checkpoint(key, latest->tree_size,
                                            other_root, latest->epoch,
                                            pub_rng);
  node.reset();
  transport.register_endpoint(
      endpoint, [&forged](ByteView frame) -> std::optional<Bytes> {
        const auto request = net::parse_request_frame(frame);
        if (request && request->method == net::Method::kTlogSync) {
          return net::encode_response_frame(
              net::Status::kOk, tlog::encode_sync_bundle({forged.to_bytes()}));
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
  EXPECT_EQ(distrusted.value(), 1u);
  // Condemned means off the wire entirely.
  EXPECT_EQ(client.sync(), 0u);
  const auto out = client.query(corpus[0]);
  EXPECT_NE(out.freshness, Freshness::kFresh);

  obs::MetricsRegistry::global().set_clock(&obs::SteadyClock::instance());
}

// ------------------------------------- concurrent syncs, one publisher

// Two wallets, each with its own transport and node, share one server and
// one publisher and sync concurrently while the list changes. Each sync
// is answered from one publication, so no publish can land between the
// parts one wallet checks: every wallet stays trusted and ends on the
// server's buckets.
TEST(ConcurrentSync, WalletsSharingOnePublisherStayTrustedUnderChurn) {
  auto corpus_rng = ChaChaRng::from_string_seed("ts-sync-corpus");
  auto server_rng = ChaChaRng::from_string_seed("ts-sync-server");
  auto key_rng = ChaChaRng::from_string_seed("ts-sync-key");
  auto pub_rng = ChaChaRng::from_string_seed("ts-sync-pub");
  const auto corpus = blocklist::generate_corpus(100, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);
  server.setup(std::span<const std::string>(corpus).first(40));
  const auto key = nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);

  struct Wallet {
    Wallet(const std::string& name, oprf::OprfServer& server,
           tlog::EpochPublisher& publisher, const ec::RistrettoPoint& pk)
        : transport_rng(ChaChaRng::from_string_seed(name + "-transport")),
          client_rng(ChaChaRng::from_string_seed(name + "-client")),
          transport(net::TransportConfig{.latency_ms_min = 0.5,
                                         .latency_ms_max = 1.0,
                                         .drop_rate = 0.0},
                    transport_rng),
          node(transport, name, server, oprf::Oracle::fast(),
               net::NodeLimits(), nullptr, &publisher),
          client(transport, name, client_rng),
          auditor(pk, name) {}
    ChaChaRng transport_rng;
    ChaChaRng client_rng;
    net::Transport transport;
    net::BlocklistServiceNode node;
    net::RemoteBlocklistClient client;
    tlog::Auditor auditor;
  };
  std::deque<Wallet> wallets;
  wallets.emplace_back("ts-sync-a", server, publisher, key.pk);
  wallets.emplace_back("ts-sync-b", server, publisher, key.pk);

  // The wallets sync back to back for as long as the list changes.
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (auto& wallet : wallets) {
    threads.emplace_back([&] {
      while (!go.load()) {
      }
      while (!done.load()) {
        if (!wallet.client.verified_sync(wallet.auditor).ok) ++failed;
      }
    });
  }
  go.store(true);
  for (std::size_t i = 0; i < 30; ++i) {
    server.add_entries(
        std::span<const std::string>(corpus).subspan(40 + 2 * i, 2));
    server.remove_entries(std::span<const std::string>(corpus).subspan(i, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failed.load(), 0);
  for (auto& wallet : wallets) {
    SCOPED_TRACE(wallet.node.endpoint());
    EXPECT_TRUE(wallet.client.verified_sync(wallet.auditor).ok);
    EXPECT_TRUE(wallet.auditor.trusted());
    EXPECT_EQ(wallet.auditor.buckets(), server.bucket_snapshot());
  }
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

  const CounterDelta requests("cbl_net_requests_total", {{"method", "query"}});
  const CounterDelta enqueued("cbl_net_pipeline_enqueued_total");
  const CounterDelta shed("cbl_net_pipeline_shed_total");

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
  EXPECT_EQ(requests.value(),
            static_cast<std::uint64_t>(kThreads * kQueriesPerThread));
  EXPECT_EQ(requests.value(), enqueued.value() + shed.value());
}

}  // namespace
}  // namespace cbl
