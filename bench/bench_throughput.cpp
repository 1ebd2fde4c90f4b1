// Throughput layer benchmark: batched crypto kernels vs their scalar
// counterparts, the multi-threaded rebuild sweep, and end-to-end QPS
// through the coalescing QueryPipeline. Emits BENCH_throughput.json via
// --json <path>; --quick shrinks sizes/reps for the CI perf-smoke stage.
//
// Records (unit "x" = speedup of the batched path over the scalar path,
// >1 is faster; unit "qps"/"eps" = absolute rates):
//   kernel/batch_invert        batch=N   speedup vs N * Fe25519::invert
//   kernel/batch_encode        batch=N   speedup vs N * (P+P).encode()
//   kernel/batch_hash_to_group batch=N   speedup vs N * hash_to_group: a
//                                        batch runs two entries' four
//                                        Elligator roots in one four-lane
//                                        chain, hash_to_group its own two
//                                        (~1.5x on IFMA CPUs, ~1 serial)
//   kernel/scalar_mul          kernel=K  serial-ladder ns/op over the ns/op
//                                        of the body operator* dispatches
//                                        to (K = ifma or serial), both
//                                        timed in this run
//   kernel/scalar_mul_pair     kernel=K  two dispatched operator* calls'
//                                        ns over one pair-body call's ns
//                                        (the two-point 512-bit ladder on
//                                        IFMA CPUs, ~1 serial)
//   client/finish_repeat       entries=N ns of OprfClient::finish taking
//                                        the full path (unblind) over ns of
//                                        a memo-hit finish, same pendings
//                                        and omitted-bucket responses
//   rebuild/threads            threads=T entries/sec through setup()
//   pipeline/qps               threads=T,batch=B  queries/sec via serve()
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "blocklist/generator.h"
#include "common/rng.h"
#include "ec/ristretto.h"
#include "ec/ristretto_kernels.h"
#include "exec/parallel_for.h"
#include "net/query_pipeline.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "oprf/wire.h"

namespace {

using Clock = std::chrono::steady_clock;
using cbl::Bytes;
using cbl::ChaChaRng;
namespace ec = cbl::ec;
namespace oprf = cbl::oprf;
namespace net = cbl::net;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

std::vector<ec::Fe25519> random_fes(std::size_t n, cbl::Rng& rng) {
  std::vector<ec::Fe25519> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::array<std::uint8_t, 32> raw{};
    rng.fill(raw.data(), raw.size());
    raw[31] &= 0x7f;
    out.push_back(ec::Fe25519::from_bytes(raw));
  }
  return out;
}

std::vector<ec::RistrettoPoint> random_points(std::size_t n, cbl::Rng& rng) {
  std::vector<ec::RistrettoPoint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes seed = rng.bytes(32);
    out.push_back(ec::RistrettoPoint::hash_to_group(seed, "bench/throughput"));
  }
  return out;
}

/// Times fn() `reps` times, returns best-of ns per op for `ops` ops.
template <typename Fn>
double time_ns_per_op(int reps, std::size_t ops, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 / static_cast<double>(ops);
}

void bench_kernels(cbl::benchjson::Summary& summary, bool quick) {
  std::printf("=== Batched kernels vs scalar (best-of timings) ===\n\n");
  std::printf("%-24s %-8s %14s %14s %10s\n", "kernel", "batch", "scalar ns/op",
              "batch ns/op", "speedup");

  auto rng = ChaChaRng::from_string_seed("bench-throughput-kernels");
  const int reps = quick ? 3 : 7;
  const std::size_t batches[] = {1, 4, 16, 64, 256};

  for (const std::size_t n : batches) {
    // --- Fe25519::batch_invert vs n * invert() -----------------------
    const auto fes = random_fes(n, rng);
    const double scalar_ns = time_ns_per_op(reps, n, [&] {
      for (const auto& fe : fes) {
        auto inv = fe.invert();
        (void)inv;
      }
    });
    std::vector<ec::Fe25519> work;
    const double batch_ns = time_ns_per_op(reps, n, [&] {
      work = fes;
      ec::Fe25519::batch_invert(work);
    });
    const double speedup = scalar_ns / batch_ns;
    std::printf("%-24s %-8zu %14.1f %14.1f %9.2fx\n", "batch_invert", n,
                scalar_ns, batch_ns, speedup);
    summary.add({"kernel/batch_invert", "batch=" + std::to_string(n),
                 batch_ns, 0.0, speedup, "x"});
  }
  std::printf("\n");

  for (const std::size_t n : batches) {
    // --- double_and_encode_batch vs n * (P+P).encode() ---------------
    const auto points = random_points(n, rng);
    const double scalar_ns = time_ns_per_op(reps, n, [&] {
      for (const auto& p : points) {
        auto enc = (p + p).encode();
        (void)enc;
      }
    });
    std::vector<ec::RistrettoPoint::Encoding> encs;
    const double batch_ns = time_ns_per_op(reps, n, [&] {
      encs = ec::RistrettoPoint::double_and_encode_batch(points);
    });
    const double speedup = scalar_ns / batch_ns;
    std::printf("%-24s %-8zu %14.1f %14.1f %9.2fx\n", "batch_encode", n,
                scalar_ns, batch_ns, speedup);
    summary.add({"kernel/batch_encode", "batch=" + std::to_string(n),
                 batch_ns, 0.0, speedup, "x"});
  }
  std::printf("\n");

  for (const std::size_t n : batches) {
    // --- batch_hash_to_group vs n * hash_to_group ---------------------
    std::vector<Bytes> inputs;
    inputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) inputs.push_back(rng.bytes(32));
    const double scalar_ns = time_ns_per_op(reps, n, [&] {
      for (const auto& in : inputs) {
        auto p = ec::RistrettoPoint::hash_to_group(in, "bench/throughput");
        (void)p;
      }
    });
    std::vector<ec::RistrettoPoint> pts;
    const double batch_ns = time_ns_per_op(reps, n, [&] {
      pts = ec::RistrettoPoint::batch_hash_to_group(inputs,
                                                    "bench/throughput");
    });
    const double speedup = scalar_ns / batch_ns;
    std::printf("%-24s %-8zu %14.1f %14.1f %9.2fx\n", "batch_hash_to_group",
                n, scalar_ns, batch_ns, speedup);
    summary.add({"kernel/batch_hash_to_group", "batch=" + std::to_string(n),
                 batch_ns, 0.0, speedup, "x"});
  }
  std::printf("\n");

  // --- scalar multiplication: the dispatched body vs the serial ladder --
  // A ratio from one run, so the host's speed cancels out of the gate.
  const std::size_t n = 32;
  const auto points = random_points(n, rng);
  std::vector<ec::Scalar> scalars;
  for (std::size_t i = 0; i < n; ++i) {
    scalars.push_back(ec::Scalar::random(rng));
  }
  std::vector<ec::RistrettoPoint> out(n);
  const double serial_ns = time_ns_per_op(reps, n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = ec::RistrettoKernels::mul_serial(points[i], scalars[i]);
    }
  });
  const double active_ns = time_ns_per_op(reps, n, [&] {
    for (std::size_t i = 0; i < n; ++i) out[i] = points[i] * scalars[i];
  });
  const std::string kernel = ec::RistrettoKernels::active_name();
  std::printf("%-24s %-8s %14.1f %14.1f %9.2fx\n", "scalar_mul",
              kernel.c_str(), serial_ns, active_ns, serial_ns / active_ns);
  summary.add({"kernel/scalar_mul", "kernel=" + kernel, active_ns, 0.0,
               serial_ns / active_ns, "x"});

  // --- two points per call: the pair body vs two dispatched operator* --
  const double pair_ns = time_ns_per_op(reps, n / 2, [&] {
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      const auto pair = ec::RistrettoKernels::mul_pair(
          points[i], scalars[i], points[i + 1], scalars[i + 1]);
      out[i] = pair[0];
      out[i + 1] = pair[1];
    }
  });
  std::printf("%-24s %-8s %14.1f %14.1f %9.2fx\n", "scalar_mul_pair",
              kernel.c_str(), 2 * active_ns, pair_ns,
              2 * active_ns / pair_ns);
  summary.add({"kernel/scalar_mul_pair", "kernel=" + kernel, pair_ns, 0.0,
               2 * active_ns / pair_ns, "x"});
  std::printf("\n");
}

void bench_finish_repeat(cbl::benchjson::Summary& summary, bool quick) {
  std::printf("=== OprfClient::finish on a repeat: unblind vs memo ===\n\n");
  // lambda = 1 puts about half the corpus in bucket 0; the first entry
  // there primes the bucket, the next `n` are timed.
  constexpr unsigned kLambda = 1;
  const std::size_t n = 64;
  const int reps = quick ? 5 : 15;
  auto corpus_rng = ChaChaRng::from_string_seed("bench-throughput-finish");
  const auto corpus =
      cbl::blocklist::generate_corpus(4 * n, corpus_rng).addresses();
  auto server_rng = ChaChaRng::from_string_seed("bench-throughput-finish-srv");
  oprf::OprfServer server(oprf::Oracle::fast(), kLambda, server_rng);
  server.setup(corpus);
  auto client_rng = ChaChaRng::from_string_seed("bench-throughput-finish-cli");
  oprf::OprfClient client(oprf::Oracle::fast(), kLambda, client_rng);

  std::vector<std::string> bucket;
  for (const auto& entry : corpus) {
    if (oprf::Oracle::prefix(cbl::to_bytes(entry), kLambda) == 0) {
      bucket.push_back(entry);
    }
  }
  if (bucket.size() < n + 1) {
    std::fprintf(stderr, "bench_finish_repeat: bucket 0 holds %zu entries\n",
                 bucket.size());
    return;
  }
  const auto primer = client.prepare(bucket[0]);
  const auto primer_response = server.handle(primer.request);
  (void)client.finish(primer.pending, primer_response);
  std::vector<oprf::OprfClient::Prepared> prepared;
  std::vector<oprf::QueryResponse> responses;
  for (std::size_t i = 1; i <= n; ++i) {
    prepared.push_back(client.prepare(bucket[i]));
    responses.push_back(server.handle(prepared.back().request));
  }

  double full_ns = 1e300;
  double hit_ns = 1e300;
  std::size_t full_listed = 0;
  std::size_t hit_listed = 0;
  for (int r = 0; r < reps; ++r) {
    // A re-sent bucket at the same epoch: cached again, memo empty.
    client.clear_cache();
    (void)client.finish(primer.pending, primer_response);
    full_listed = hit_listed = 0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      full_listed += client.finish(prepared[i].pending, responses[i]).listed;
    }
    full_ns = std::min(full_ns, seconds_since(t0));
    t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      hit_listed += client.finish(prepared[i].pending, responses[i]).listed;
    }
    hit_ns = std::min(hit_ns, seconds_since(t0));
  }
  if (full_listed != n || hit_listed != n) {
    std::fprintf(stderr, "bench_finish_repeat: %zu / %zu of %zu listed\n",
                 full_listed, hit_listed, n);
    return;
  }
  full_ns *= 1e9 / static_cast<double>(n);
  hit_ns *= 1e9 / static_cast<double>(n);
  std::printf("%-24s %-8s %14s %14s %10s\n", "finish", "entries",
              "full ns/op", "memo ns/op", "speedup");
  std::printf("%-24s %-8zu %14.1f %14.1f %9.2fx\n\n", "finish_repeat", n,
              full_ns, hit_ns, full_ns / hit_ns);
  summary.add({"client/finish_repeat", "entries=" + std::to_string(n), hit_ns,
               0.0, full_ns / hit_ns, "x"});
}

void bench_rebuild(cbl::benchjson::Summary& summary, bool quick) {
  std::printf("=== Rebuild thread sweep (batched blinding path) ===\n\n");
  std::printf("%-10s %14s %14s\n", "threads", "setup ms", "entries/s");

  const std::size_t entries_n = quick ? 2'000 : 20'000;
  auto corpus_rng = ChaChaRng::from_string_seed("bench-throughput-corpus");
  const auto corpus =
      cbl::blocklist::generate_corpus(entries_n, corpus_rng).addresses();

  const unsigned hw = cbl::exec::hardware_threads();
  std::vector<unsigned> sweep = {1, 2, 4};
  if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end()) {
    sweep.push_back(hw);
  }
  for (const unsigned threads : sweep) {
    if (threads > hw) continue;
    auto server_rng = ChaChaRng::from_string_seed("bench-throughput-server");
    oprf::OprfServer server(oprf::Oracle::fast(), 12, server_rng);
    const auto t0 = Clock::now();
    server.setup(corpus, threads);
    const double secs = seconds_since(t0);
    const double eps = static_cast<double>(entries_n) / secs;
    std::printf("%-10u %14.1f %14.0f\n", threads, secs * 1e3, eps);
    summary.add({"rebuild/threads", "threads=" + std::to_string(threads),
                 secs * 1e9 / static_cast<double>(entries_n), 0.0, eps,
                 "eps"});
  }
  std::printf("\n");
}

void bench_pipeline(cbl::benchjson::Summary& summary, bool quick) {
  std::printf(
      "=== End-to-end QPS through the coalescing QueryPipeline ===\n\n");
  std::printf("%-10s %-12s %14s\n", "clients", "max_batch", "QPS");

  const std::size_t entries_n = quick ? 1'000 : 8'000;
  auto corpus_rng = ChaChaRng::from_string_seed("bench-throughput-qps");
  const auto corpus =
      cbl::blocklist::generate_corpus(entries_n, corpus_rng).addresses();

  auto server_rng = ChaChaRng::from_string_seed("bench-throughput-qps-srv");
  oprf::OprfServer server(oprf::Oracle::fast(), 10, server_rng);
  server.setup(corpus);

  // Pre-blind a pool of requests once: the bench measures the serving
  // path (parse + coalesce + evaluate + serialize), not client blinding.
  auto client_rng = ChaChaRng::from_string_seed("bench-throughput-qps-cli");
  oprf::OprfClient client(oprf::Oracle::fast(), 10, client_rng);
  const std::size_t request_pool = quick ? 64 : 256;
  std::vector<Bytes> bodies;
  bodies.reserve(request_pool);
  for (std::size_t i = 0; i < request_pool; ++i) {
    const auto prepared = client.prepare(corpus[i % corpus.size()]);
    bodies.push_back(oprf::serialize(prepared.request));
  }

  const unsigned hw = cbl::exec::hardware_threads();
  std::vector<unsigned> client_counts = {1, 2, 4, 8};
  const std::size_t per_client = quick ? 50 : 400;

  for (const unsigned clients : client_counts) {
    if (clients > 2 * hw) continue;
    net::QueryPipeline pipeline(server, net::PipelineOptions());

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> ok{0};
    const std::size_t total = per_client * clients;
    const auto t0 = Clock::now();
    {
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
          for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= total) return;
            const auto result = pipeline.serve(bodies[i % bodies.size()]);
            if (result.status == net::Status::kOk) ok.fetch_add(1);
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    const double secs = seconds_since(t0);
    const double qps = static_cast<double>(ok.load()) / secs;
    std::printf("%-10u %-12zu %14.0f\n", clients,
                net::QueryPipeline::kMaxBatch, qps);
    summary.add({"pipeline/qps",
                 "threads=" + std::to_string(clients) +
                     ",max_batch=" +
                     std::to_string(net::QueryPipeline::kMaxBatch),
                 1e9 / std::max(1.0, qps), 0.0, qps, "qps"});
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      cbl::benchjson::json_path_from_args(argc, argv);
  const bool quick = has_flag(argc, argv, "--quick");
  cbl::benchjson::Summary summary("throughput");

  bench_kernels(summary, quick);
  bench_finish_repeat(summary, quick);
  bench_rebuild(summary, quick);
  bench_pipeline(summary, quick);

  std::printf(
      "Shape to check: batch_invert and batch_encode speedups grow with the "
      "batch (one field inversion amortized over N elements, ~2x+ by "
      "batch 64); batch_hash_to_group and scalar_mul_pair read ~1.5x on "
      "CPUs with AVX-512 IFMA (four square roots, or two ladders, per "
      "vector) and ~1x elsewhere; finish_repeat well above 2x (a memo "
      "hit skips the unblind); rebuild scales with threads; pipeline "
      "QPS rises with "
      "concurrent clients as coalescing packs larger crypto batches.\n");

  if (!json_path.empty() && summary.write(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
