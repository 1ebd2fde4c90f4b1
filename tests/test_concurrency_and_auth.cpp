// Tests for concurrent query serving (many client threads against one
// OprfServer while a maintenance thread mutates the blocklist).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "net/query_pipeline.h"
#include "obs/metrics.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "oprf/wire.h"

namespace cbl {
namespace {

using cbl::ChaChaRng;

TEST(Concurrency, ParallelQueriesStayCorrect) {
  auto corpus_rng = ChaChaRng::from_string_seed("conc-corpus");
  const auto corpus =
      blocklist::generate_corpus(200, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("conc-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(corpus);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 40;
  std::atomic<int> wrong{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto rng = ChaChaRng::from_string_seed("conc-client-" +
                                             std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        // Alternate listed and clean addresses.
        const bool expect_listed = q % 2 == 0;
        const std::string target =
            expect_listed
                ? corpus[static_cast<std::size_t>((t * 37 + q) %
                                                  static_cast<int>(
                                                      corpus.size()))]
                : blocklist::random_address(blocklist::Chain::kBitcoin, rng);
        try {
          const auto prepared = client.prepare(target);
          const auto response = server.handle(prepared.request);
          const bool listed =
              client.finish(prepared.pending, response).listed;
          if (listed != expect_listed) ++wrong;
        } catch (const ProtocolError&) {
          ++wrong;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Concurrency, QueriesRideThroughMaintenance) {
  auto corpus_rng = ChaChaRng::from_string_seed("conc2-corpus");
  auto all = blocklist::generate_corpus(300, corpus_rng).addresses();
  const std::vector<std::string> stable(all.begin(), all.begin() + 150);
  const std::vector<std::string> churn(all.begin() + 150, all.end());

  auto server_rng = ChaChaRng::from_string_seed("conc2-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(stable);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};

  // Maintenance thread: repeatedly add and remove the churn set.
  std::thread maintenance([&] {
    for (int round = 0; round < 10; ++round) {
      server.add_entries(churn);
      server.remove_entries(churn);
    }
    stop = true;
  });

  // Query threads: stable entries must ALWAYS be listed regardless of
  // the concurrent churn.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      auto rng = ChaChaRng::from_string_seed("conc2-client-" +
                                             std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      int q = 0;
      while (!stop.load() || q < 20) {
        const auto& target = stable[static_cast<std::size_t>(
            (t * 53 + q) % static_cast<int>(stable.size()))];
        try {
          const auto prepared = client.prepare(target);
          const auto response = server.handle(prepared.request);
          if (!client.finish(prepared.pending, response).listed) ++wrong;
        } catch (const ProtocolError&) {
          ++wrong;
        }
        ++q;
        if (q > 500) break;  // safety bound
      }
    });
  }
  maintenance.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  // Churn ended with a removal round: only the stable set remains.
  EXPECT_EQ(server.entry_count(), stable.size());
}

// The batched serving path under the same adversarial schedule, designed
// to run under TSan: many client threads funnel through
// QueryPipeline::serve (group-commit coalescing) while a maintenance
// thread rotates the key and churns entries. Every non-shed answer must
// be a correct verdict; shed answers must be kRateLimited and must never
// have occupied a batch slot; every call is either enqueued or shed.
TEST(Concurrency, PipelineServesCorrectlyUnderChurnAndRotation) {
  auto corpus_rng = ChaChaRng::from_string_seed("conc3-corpus");
  auto all = blocklist::generate_corpus(240, corpus_rng).addresses();
  const std::vector<std::string> stable(all.begin(), all.begin() + 120);
  const std::vector<std::string> churn(all.begin() + 120, all.end());

  auto server_rng = ChaChaRng::from_string_seed("conc3-server");
  oprf::OprfServer server(oprf::Oracle::fast(), 4, server_rng);
  server.setup(stable);

  net::PipelineOptions options;
  options.max_queue = 2;  // small enough that bursts shed
  net::QueryPipeline pipeline(server, options);

  auto& registry = obs::MetricsRegistry::global();
  const obs::Counter& enqueued =
      registry.counter("cbl_net_pipeline_enqueued_total");
  const obs::Counter& pipeline_shed =
      registry.counter("cbl_net_pipeline_shed_total");
  const std::uint64_t enqueued_before = enqueued.value();
  const std::uint64_t shed_before = pipeline_shed.value();

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> ok_served{0};
  std::atomic<int> shed{0};
  std::atomic<int> calls{0};

  std::thread maintenance([&] {
    for (int round = 0; round < 6; ++round) {
      server.add_entries(churn);
      server.remove_entries(churn);
      server.rotate_key();
    }
    stop = true;
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      auto rng =
          ChaChaRng::from_string_seed("conc3-client-" + std::to_string(t));
      oprf::OprfClient client(oprf::Oracle::fast(), 4, rng);
      int q = 0;
      while (!stop.load() || q < 30) {
        const auto& target = stable[static_cast<std::size_t>(
            (t * 31 + q) % static_cast<int>(stable.size()))];
        const auto prepared = client.prepare(target);
        const Bytes body = oprf::serialize(prepared.request);
        const auto result = pipeline.serve(body);
        ++calls;
        if (result.status == net::Status::kRateLimited) {
          // Pipeline shed: refused before enqueue, so it carries the
          // pipeline's own retry hint and no body.
          EXPECT_EQ(result.retry_after_ms,
                    net::QueryPipeline::kShedRetryAfterMs);
          EXPECT_TRUE(result.body.empty());
          ++shed;
        } else if (result.status == net::Status::kOk) {
          try {
            const auto response = oprf::parse_query_response(result.body);
            if (!response ||
                !client.finish(prepared.pending, *response).listed) {
              ++wrong;
            }
          } catch (const ProtocolError&) {
            ++wrong;
          }
          ++ok_served;
        } else {
          ++wrong;  // a well-formed query must never be kBadRequest
        }
        client.clear_cache();  // epochs churn; keep every query cold
        ++q;
        if (q > 400) break;  // safety bound
      }
    });
  }
  maintenance.join();
  for (auto& th : clients) th.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(ok_served.load(), 4 * 30 - shed.load());
  EXPECT_GT(ok_served.load(), 0);
  EXPECT_EQ((enqueued.value() - enqueued_before) +
                (pipeline_shed.value() - shed_before),
            static_cast<std::uint64_t>(calls.load()));
  EXPECT_EQ(pipeline_shed.value() - shed_before,
            static_cast<std::uint64_t>(shed.load()));
}

}  // namespace
}  // namespace cbl
