// Transparency-log benchmark: the wire cost of signed epoch deltas vs
// the full bucket download they replace, swept over churn levels, plus
// what one epoch costs the provider (publish) and each client (fold)
// next to a full bucket-tree build over the same list. Emits
// BENCH_tlog.json via --json <path>; --quick shrinks sizes/reps for the
// CI perf-smoke stage. scripts/check_bench_regression.py gates, on the
// churn_sync shape at the lowest churn level (2 changed entries per 1k),
// delta_bytes < full_bytes and publish and fold each costing under half
// a full build (neither may do work over the whole list); and on the
// prefix_filtered shape, the kept-tree update, publish and fold against
// that shape's full build (a reshape may rebuild the internal levels,
// but must not rehash unchanged buckets).
//
// Two list shapes run:
//   churn_sync       ~16 entries per bucket (2^14 entries at lambda 10
//                    with --quick, the end-to-end churn workload's shape;
//                    2^16 at lambda 12 otherwise), so churn edits buckets
//                    in place rather than creating or emptying them;
//   prefix_filtered  2^12 entries at lambda 16 (both modes), nearly all in
//                    one-entry buckets, so churn makes buckets appear and
//                    empty.
//
// Records (unit "x" = full_bytes / delta_bytes, >1 means the delta path
// saves wire bytes; L = "entries=N,lambda=L" names the shape):
//   hash/sha256_block    kernel=K  ns per 64-byte block on the SHA-256
//                        kernel CPUID selected (sha-ni or portable)
//   sync/full_bytes      L             one full bucket download
//   sync/delta_bytes     L,churn=Cper1k  one signed delta
//   tree/full_build      L  ns to build the bucket tree from scratch
//                        (the O(list) yardstick)
//   publish/epoch        L,churn=Cper1k  ns for one
//                        EpochPublisher::publish_epoch after the churn
//   tree/update          L,churn=Cper1k  ns for BucketTree::update from
//                        the base epoch's tree over the delta's buckets
//   verify/checkpoint    ns per signed-checkpoint verification
//   verify/delta_fold    L,churn=Cper1k  ns for one
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
#include "hash/sha256.h"
#include "hash/sha256_kernels.h"
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

/// One list shape: `entries` listed at prefix length `lambda`, churned
/// at each of `churn_per_1k` (changed entries per 1,000 per epoch).
struct Shape {
  std::size_t entries;
  unsigned lambda;
  std::vector<unsigned> churn_per_1k;
};

/// Emits tree/full_build, per churn level sync/delta_bytes,
/// publish/epoch, verify/delta_fold and tree/update, then
/// sync/full_bytes, for one list shape. Every record
/// carries "entries=N,lambda=L" so the gates can pair each epoch cost
/// with the full build of the same shape.
void run_shape(cbl::benchjson::Summary& summary, const Shape& shape,
               int reps, const cbl::nizk::SigningKey& key) {
  const std::size_t entries = shape.entries;
  // Corpus: `entries` listed addresses plus enough fresh ones to feed
  // every churn round (adds only; removals reuse listed addresses).
  std::size_t churn_total = 0;
  for (unsigned c : shape.churn_per_1k) {
    churn_total += reps * c * entries / 1000;
  }
  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("bench-tlog-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("bench-tlog-server");
  ChaChaRng pub_rng = ChaChaRng::from_string_seed("bench-tlog-pub");
  const auto corpus =
      cbl::blocklist::generate_corpus(entries + churn_total, corpus_rng)
          .addresses();

  oprf::OprfServer server(oprf::Oracle::fast(), shape.lambda, server_rng);
  server.setup(std::span<const std::string>(corpus).first(entries));
  tlog::EpochPublisher publisher(key, pub_rng);
  publisher.publish_epoch(server);
  // What the provider sends a wallet at `mirror_epoch` (kNoEpoch: none).
  const auto sync_from = [&](std::uint64_t mirror_epoch) {
    auto bundle = publisher.sync(server, {0, mirror_epoch});
    if (!bundle.has_value()) std::abort();
    return *bundle;
  };
  // The full bucket download: its wire bytes, and the map they encode.
  const auto full_download = [&] {
    return sync_from(oprf::kNoEpoch).snapshot;
  };
  const auto current_buckets = [&] {
    auto buckets = tlog::parse_bucket_map(full_download());
    if (!buckets.has_value()) std::abort();
    return std::move(*buckets);
  };

  // The O(list) yardstick: a bucket tree built from scratch.
  const std::string list_params = "entries=" + std::to_string(entries) +
                                  ",lambda=" + std::to_string(shape.lambda);
  {
    const tlog::BucketMap buckets = current_buckets();
    const double ns = time_ns_per_op(reps, 1, [&] {
      if (tlog::BucketTree(buckets).leaf_count() != buckets.size()) {
        std::abort();
      }
    });
    summary.add({"tree/full_build", list_params, ns, 0.0});
    std::printf("%-22s %-32s %12.0f %14s\n", "tree/full_build",
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
  for (unsigned churn : shape.churn_per_1k) {
    const std::size_t changed = std::max<std::size_t>(2, churn * entries / 1000);
    const std::size_t adds = changed / 2;
    const std::size_t removes = changed - adds;
    std::uint64_t base_epoch = 0;
    tlog::BucketMap base;
    tlog::Checkpoint base_checkpoint;
    double publish_ns = 1e300;
    for (int round = 0; round < reps; ++round) {
      base_epoch = server.epoch();
      base = current_buckets();
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

    const tlog::SyncBundle bundle = sync_from(base_epoch);
    if (bundle.deltas.size() != 1) std::abort();
    const auto delta = tlog::EpochDelta::from_bytes(bundle.deltas[0]);
    if (!delta.has_value()) std::abort();
    const double delta_bytes = static_cast<double>(bundle.deltas[0].size());
    const Bytes full = full_download();
    const auto post = tlog::parse_bucket_map(full);
    if (!post.has_value()) std::abort();
    const double full_bytes = static_cast<double>(full.size());
    const double ratio = full_bytes / delta_bytes;
    const std::string params =
        list_params + ",churn=" + std::to_string(churn) + "per1k";
    summary.add({"sync/delta_bytes", params, 0.0, delta_bytes, ratio, "x"});
    std::printf("%-22s %-32s %12s %14.0f  (%.1fx smaller)\n",
                "sync/delta_bytes", params.c_str(), "-", delta_bytes, ratio);
    summary.add({"publish/epoch", params, publish_ns, 0.0});
    std::printf("%-22s %-32s %12.0f %14s\n", "publish/epoch",
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
    std::printf("%-22s %-32s %12.0f %14s\n", "verify/delta_fold",
                params.c_str(), fold_ns, "-");

    // The tree work both of those share: the base epoch's bucket tree
    // brought to the new buckets (copied outside the timed region).
    std::vector<std::uint32_t> changed_prefixes;
    for (const auto& p : delta->prefixes) changed_prefixes.push_back(p.prefix);
    const tlog::BucketTree base_tree(base);
    double update_ns = 1e300;
    for (int r = 0; r < reps; ++r) {
      tlog::BucketTree kept = base_tree;
      update_ns = std::min(update_ns, time_ns_per_op(1, 1, [&] {
                             kept.update(*post, changed_prefixes);
                           }));
      if (kept.root() != delta->post_bucket_root) std::abort();
    }
    summary.add({"tree/update", params, update_ns, 0.0});
    std::printf("%-22s %-32s %12.0f %14s\n", "tree/update", params.c_str(),
                update_ns, "-");
  }
  const double full_bytes = static_cast<double>(full_download().size());
  summary.add({"sync/full_bytes", list_params, 0.0, full_bytes});
  std::printf("%-22s %-32s %12s %14.0f\n", "sync/full_bytes",
              list_params.c_str(), "-", full_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = has_flag(argc, argv, "--quick");
  const std::string json_path = cbl::benchjson::json_path_from_args(argc, argv);
  cbl::benchjson::Summary summary("tlog");
  const int reps = quick ? 3 : 10;

  ChaChaRng key_rng = ChaChaRng::from_string_seed("bench-tlog-key");
  const auto key = cbl::nizk::SigningKey::generate(key_rng);

  std::printf("tlog bench: quick=%d sha256 kernel=%s\n", quick ? 1 : 0,
              cbl::hash::sha256_kernel::active_name());
  std::printf("%-22s %-32s %12s %14s\n", "record", "params", "ns/op",
              "bytes");

  // The SHA-256 kernel CPUID selected, and what one block costs on it.
  {
    const Bytes data(std::size_t{1} << 16, 0x5a);
    const double ns = time_ns_per_op(reps, data.size() / 64, [&] {
      const auto d = cbl::hash::Sha256::digest(data);
      if (d[0] == 0 && d[1] == 0 && d[2] == 0 && d[3] == 0) std::abort();
    });
    const std::string params =
        std::string("kernel=") + cbl::hash::sha256_kernel::active_name();
    summary.add({"hash/sha256_block", params, ns, 0.0});
    std::printf("%-22s %-32s %12.1f %14s\n", "hash/sha256_block",
                params.c_str(), ns, "-");
  }

  // Checkpoint verification: one Schnorr check per sync.
  {
    ChaChaRng cp_rng = ChaChaRng::from_string_seed("bench-tlog-cp");
    const auto cp = tlog::sign_checkpoint(key, 1, tlog::Digest{}, 1, cp_rng);
    const double ns = time_ns_per_op(reps, 1, [&] {
      if (!tlog::verify_checkpoint(key.pk, cp)) std::abort();
    });
    summary.add({"verify/checkpoint", "", ns, 0.0});
    std::printf("%-22s %-32s %12.0f %14s\n", "verify/checkpoint", "-", ns,
                "-");
  }

  // The churn_sync list shape: ~16 entries per bucket, so churn edits
  // buckets in place.
  run_shape(summary,
            {quick ? std::size_t{16384} : std::size_t{65536}, quick ? 10u : 12u,
             {2, 8, 32}},
            reps, key);
  // The prefix_filtered shape: 2^12 entries at lambda 16, nearly all in
  // one-entry buckets, churned by about the end-to-end round (128 adds +
  // 128 removes), so nearly every change makes a bucket appear or empty
  // and publish and fold take the reshape path. Each timing is ~1 ms, so
  // ten repetitions cost little and steady the gated ratios.
  run_shape(summary, {std::size_t{4096}, 16u, {62}}, 10, key);

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
    std::printf("%-22s %-32s %12.0f %14s\n", "verify/inclusion",
                params.c_str(), incl_ns, "-");

    const auto consistency = log.prove_consistency(old_size);
    const double cons_ns = time_ns_per_op(reps, 1, [&] {
      if (!chain::MerkleTree::verify_consistency(old_root, old_size, root,
                                                 log_size, consistency)) {
        std::abort();
      }
    });
    summary.add({"verify/consistency", params, cons_ns, 0.0});
    std::printf("%-22s %-32s %12.0f %14s\n", "verify/consistency",
                params.c_str(), cons_ns, "-");
  }

  if (!json_path.empty()) {
    if (!summary.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
