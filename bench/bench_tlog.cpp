// Transparency-log benchmark: the wire cost of signed epoch deltas vs
// the full bucket download they replace, swept over churn levels, plus
// what one epoch costs the provider (publish) and each client (fold)
// next to a full bucket-tree build over the same list. Emits
// BENCH_tlog.json via --json <path>; --quick shrinks sizes/reps for the
// CI perf-smoke stage, which gates at the lowest churn level (2 changed
// entries per 1k) on delta_bytes < full_bytes and on publish and fold
// each costing under half a full build — i.e. on neither doing work
// over the whole list.
//
// The list has ~16 entries per bucket (2^14 entries at lambda 10 with
// --quick, the end-to-end churn workload's shape; 2^16 at lambda 12
// otherwise), so churn edits buckets in place rather than creating or
// emptying them.
//
// Records (unit "x" = full_bytes / delta_bytes, >1 means the delta path
// saves wire bytes):
//   sync/full_bytes      entries=N            one full bucket download
//   sync/delta_bytes     entries=N,churn=Cper1k  one signed delta
//   tree/full_build      entries=N  ns to build the bucket tree from
//                        scratch (the O(list) yardstick)
//   publish/epoch        entries=N,churn=Cper1k  ns for one
//                        EpochPublisher::publish_epoch after the churn
//   verify/checkpoint    ns per signed-checkpoint verification
//   verify/delta_fold    entries=N,churn=Cper1k  ns for one
//                        Auditor::apply_delta of the signed delta
//   verify/inclusion     log_size=S  ns per index-bound inclusion check
//   verify/consistency   log_size=S  ns per append-only consistency check
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_json.h"
#include "blocklist/generator.h"
#include "common/rng.h"
#include "oprf/server.h"
#include "tlog/tlog.h"

namespace {

using Clock = std::chrono::steady_clock;
using cbl::Bytes;
using cbl::ChaChaRng;
namespace oprf = cbl::oprf;
namespace tlog = cbl::tlog;
namespace chain = cbl::chain;

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

/// Times fn() `reps` times, returns best-of ns per op for `ops` ops.
template <typename Fn>
double time_ns_per_op(int reps, std::size_t ops, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    best = std::min(best, ns / static_cast<double>(ops));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = has_flag(argc, argv, "--quick");
  const std::string json_path = cbl::benchjson::json_path_from_args(argc, argv);
  cbl::benchjson::Summary summary("tlog");

  const std::size_t entries = quick ? 16384 : 65536;
  const unsigned lambda = quick ? 10 : 12;
  const std::vector<unsigned> churn_per_1k = {2, 8, 32};
  const int reps = quick ? 3 : 10;

  // Corpus: `entries` listed addresses plus enough fresh ones to feed
  // every churn round (adds only; removals reuse listed addresses).
  std::size_t churn_total = 0;
  for (unsigned c : churn_per_1k) churn_total += reps * c * entries / 1000;
  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("bench-tlog-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("bench-tlog-server");
  ChaChaRng key_rng = ChaChaRng::from_string_seed("bench-tlog-key");
  ChaChaRng pub_rng = ChaChaRng::from_string_seed("bench-tlog-pub");
  const auto corpus =
      cbl::blocklist::generate_corpus(entries + churn_total, corpus_rng)
          .addresses();

  oprf::OprfServer server(oprf::Oracle::fast(), lambda, server_rng);
  server.setup(std::span<const std::string>(corpus).first(entries));
  const auto key = cbl::nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);
  publisher.publish_epoch(server);

  std::printf("tlog bench: entries=%zu lambda=%u quick=%d\n", entries, lambda,
              quick ? 1 : 0);
  std::printf("%-22s %-24s %12s %14s\n", "record", "params", "ns/op", "bytes");

  // Checkpoint verification: one Schnorr check per sync.
  {
    const auto cp = publisher.latest_checkpoint();
    const double ns = time_ns_per_op(reps, 1, [&] {
      if (!tlog::verify_checkpoint(key.pk, cp)) std::abort();
    });
    summary.add({"verify/checkpoint", "", ns, 0.0});
    std::printf("%-22s %-24s %12.0f %14s\n", "verify/checkpoint", "-", ns,
                "-");
  }

  // The O(list) yardstick: a bucket tree built from scratch.
  const std::string list_params = "entries=" + std::to_string(entries);
  {
    const tlog::BucketMap& buckets = publisher.current_buckets();
    const double ns = time_ns_per_op(reps, 1, [&] {
      if (tlog::BucketTree(buckets).leaf_count() != buckets.size()) {
        std::abort();
      }
    });
    summary.add({"tree/full_build", list_params, ns, 0.0});
    std::printf("%-22s %-24s %12.0f %14s\n", "tree/full_build",
                list_params.c_str(), ns, "-");
  }

  // Delta vs full download bytes at each churn level. Each level runs
  // `reps` rounds that churn C-per-1k entries (half adds, half removes,
  // minimum one of each) on top of the previous epoch, so every delta is
  // a realistic one-step bridge rather than a diff against a pristine
  // base; publish/epoch keeps the fastest round, the bytes and the fold
  // come from the last one.
  std::size_t next_fresh = entries;
  std::size_t next_removed = 0;
  for (unsigned churn : churn_per_1k) {
    const std::size_t changed = std::max<std::size_t>(2, churn * entries / 1000);
    const std::size_t adds = changed / 2;
    const std::size_t removes = changed - adds;
    std::uint64_t base_epoch = 0;
    tlog::BucketMap base;
    tlog::Checkpoint base_checkpoint;
    double publish_ns = 1e300;
    for (int round = 0; round < reps; ++round) {
      base_epoch = server.epoch();
      base = publisher.current_buckets();
      base_checkpoint = publisher.latest_checkpoint();
      server.add_entries(
          std::span<const std::string>(corpus).subspan(next_fresh, adds));
      next_fresh += adds;
      server.remove_entries(
          std::span<const std::string>(corpus).subspan(next_removed, removes));
      next_removed += removes;
      publish_ns = std::min(publish_ns, time_ns_per_op(1, 1, [&] {
                              publisher.publish_epoch(server);
                            }));
    }

    const auto delta = publisher.delta_from(base_epoch);
    if (!delta.has_value()) std::abort();
    const double delta_bytes =
        static_cast<double>(delta->to_bytes().size());
    const double full_bytes = static_cast<double>(
        tlog::encode_bucket_map(publisher.current_buckets()).size());
    const double ratio = full_bytes / delta_bytes;
    const std::string params = "entries=" + std::to_string(entries) +
                               ",churn=" + std::to_string(churn) + "per1k";
    summary.add({"sync/delta_bytes", params, 0.0, delta_bytes, ratio, "x"});
    std::printf("%-22s %-24s %12s %14.0f  (%.1fx smaller)\n",
                "sync/delta_bytes", params.c_str(), "-", delta_bytes, ratio);
    summary.add({"publish/epoch", params, publish_ns, 0.0});
    std::printf("%-22s %-24s %12.0f %14s\n", "publish/epoch",
                params.c_str(), publish_ns, "-");

    // What a wallet pays to accept this delta: Auditor::apply_delta on a
    // mirror at the base epoch (set up outside the timed region).
    double fold_ns = 1e300;
    for (int r = 0; r < reps; ++r) {
      tlog::Auditor auditor(key.pk, "bench-tlog");
      if (auditor.observe_checkpoint(base_checkpoint, nullptr) !=
              tlog::Auditor::Status::kOk ||
          auditor.adopt_snapshot(base) != tlog::Auditor::Status::kOk) {
        std::abort();
      }
      fold_ns = std::min(fold_ns, time_ns_per_op(1, 1, [&] {
                           if (auditor.apply_delta(*delta) !=
                               tlog::Auditor::Status::kOk) {
                             std::abort();
                           }
                         }));
    }
    summary.add({"verify/delta_fold", params, fold_ns, 0.0});
    std::printf("%-22s %-24s %12.0f %14s\n", "verify/delta_fold",
                params.c_str(), fold_ns, "-");
  }
  {
    const double full_bytes = static_cast<double>(
        tlog::encode_bucket_map(publisher.current_buckets()).size());
    summary.add({"sync/full_bytes", list_params, 0.0, full_bytes});
    std::printf("%-22s %-24s %12s %14.0f\n", "sync/full_bytes",
                list_params.c_str(), "-", full_bytes);
  }

  // Log proof checks on a synthetic log the size of years of epochs.
  {
    const std::size_t log_size = quick ? 64 : 512;
    tlog::TransparencyLog log;
    ChaChaRng digest_rng = ChaChaRng::from_string_seed("bench-tlog-log");
    tlog::Digest old_root{};
    const std::size_t old_size = log_size / 2;
    for (std::size_t i = 0; i < log_size; ++i) {
      tlog::EpochRecord record;
      record.epoch = i + 1;
      digest_rng.fill(record.bucket_root.data(), record.bucket_root.size());
      digest_rng.fill(record.delta_digest.data(), record.delta_digest.size());
      log.append(record);
      if (log.size() == old_size) old_root = log.root();
    }
    const auto root = log.root();
    const std::string params = "log_size=" + std::to_string(log_size);

    const auto proof = log.prove_record(log_size - 1);
    const Bytes leaf = log.record(log_size - 1).leaf_payload();
    const double incl_ns = time_ns_per_op(reps, 1, [&] {
      if (!chain::MerkleTree::verify(root, log_size - 1, log_size, leaf,
                                     proof.steps)) {
        std::abort();
      }
    });
    summary.add({"verify/inclusion", params, incl_ns, 0.0});
    std::printf("%-22s %-24s %12.0f %14s\n", "verify/inclusion",
                params.c_str(), incl_ns, "-");

    const auto consistency = log.prove_consistency(old_size);
    const double cons_ns = time_ns_per_op(reps, 1, [&] {
      if (!chain::MerkleTree::verify_consistency(old_root, old_size, root,
                                                 log_size, consistency)) {
        std::abort();
      }
    });
    summary.add({"verify/consistency", params, cons_ns, 0.0});
    std::printf("%-22s %-24s %12.0f %14s\n", "verify/consistency",
                params.c_str(), cons_ns, "-");
  }

  if (!json_path.empty()) {
    if (!summary.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
