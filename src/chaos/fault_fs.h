// chaos::FaultFs — seeded fault injection for the durability layer,
// mirroring the FaultInjector design one layer down: where the
// injector damages frames in flight, FaultFs damages bytes on their
// way to (and at rest on) the disk.
//
// Fault classes, each an independent per-operation probability from one
// ChaCha stream seeded by the plan (so a failing sweep replays
// bit-exactly from its printed seed):
//
//   * short write  — a prefix of the data lands, the call returns
//     FALSE (the honest partial-failure POSIX allows).
//   * torn write   — a prefix lands at an arbitrary cut offset but the
//     call returns TRUE (the lying kernel/disk-cache case a checksum
//     must catch).
//   * bit flip     — the written bytes land with one random bit
//     flipped (at-rest rot on the way in).
//   * fsync lie    — sync() reports success without making anything
//     durable (the classic write-cache betrayal).
//   * rename fail  — rename() refuses; the commit sequence must leave
//     the old snapshot intact.
//   * crash point  — at operation index `crash_at_op` the fs applies
//     the prefix of that mutation, then this and every later mutating
//     operation fails; the harness then calls MemFs::crash() and
//     recovers. Sweeping crash_at_op over every index proves the
//     recovery invariant at every operation boundary.
//
// FaultFs wraps any store::Fs; reads pass through untouched (at-rest
// damage is injected on the write side so it is durable and visible
// after crash(), exactly like real bit rot).
//
// Every injected fault is recorded in the global cbl::obs registry only,
// as cbl_chaos_fs_faults_total{kind}; the mutating-op index that drives
// crash_at_op is the one count kept here (ops()).
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/thread_safety.h"
#include "obs/metrics.h"
#include "store/fs.h"

namespace cbl::chaos {

/// A complete, replayable filesystem fault schedule.
struct FsFaultPlan {
  std::string name;
  std::uint64_t seed = 0;
  double short_write_prob = 0.0;  // prefix applied, call returns false
  double torn_write_prob = 0.0;   // prefix applied, call LIES (true)
  double bit_flip_prob = 0.0;     // one bit flipped in written data
  double fsync_lie_prob = 0.0;    // sync skipped, call lies (true)
  double rename_fail_prob = 0.0;  // rename refused
  /// Mutating-operation index at which the fs "crashes" (prefix of that
  /// op applied, everything after fails); negative = never.
  std::int64_t crash_at_op = -1;
  /// One-line human summary for failure reports: paste the seed (and
  /// crash_at_op) back to replay the run.
  std::string describe() const;
};

class FaultFs final : public store::Fs {
 public:
  FaultFs(store::Fs& inner, FsFaultPlan plan);

  std::optional<Bytes> read(const std::string& path) override
      CBL_EXCLUDES(mutex_);
  bool write(const std::string& path, ByteView data) override
      CBL_EXCLUDES(mutex_);
  bool append(const std::string& path, ByteView data) override
      CBL_EXCLUDES(mutex_);
  bool sync(const std::string& path) override CBL_EXCLUDES(mutex_);
  bool rename(const std::string& from, const std::string& to) override
      CBL_EXCLUDES(mutex_);
  bool remove(const std::string& path) override CBL_EXCLUDES(mutex_);
  bool exists(const std::string& path) override CBL_EXCLUDES(mutex_);
  bool sync_dir() override CBL_EXCLUDES(mutex_);

  /// True once the crash point has been reached; the harness should
  /// then power-cycle the inner fs (MemFs::crash()) and recover.
  bool crashed() const CBL_EXCLUDES(mutex_);

  /// Mutating operations seen so far, refused ones included: a
  /// fault-free probe run's ops() is the crash sweep's op-boundary count.
  std::uint64_t ops() const CBL_EXCLUDES(mutex_);
  const FsFaultPlan& plan() const { return plan_; }

 private:
  bool roll(double probability) CBL_REQUIRES(mutex_);
  /// Counts one mutating op; returns false (op refused) once crashed.
  bool begin_op() CBL_REQUIRES(mutex_);
  /// True when this op's index is the plan's crash point.
  bool is_crash_now() const CBL_REQUIRES(mutex_);
  void enter_crash() CBL_REQUIRES(mutex_);
  /// Shared write/append path: applies the (possibly cut or bit-flipped)
  /// data through the inner fs and reports what the plan dictates.
  bool apply_mutation(const std::string& path, ByteView data, bool is_append)
      CBL_EXCLUDES(mutex_);

  // lock:unguarded(reference bound in the ctor and never reseated)
  store::Fs& inner_;
  const FsFaultPlan plan_;

  mutable cbl::Mutex mutex_;  // lock: rng, op index and crash latch
  ChaChaRng rng_ CBL_GUARDED_BY(mutex_);
  std::uint64_t ops_ CBL_GUARDED_BY(mutex_) = 0;
  bool crashed_ CBL_GUARDED_BY(mutex_) = false;

  // cbl_chaos_fs_faults_total{kind}, resolved once.
  struct Metrics {
    obs::Counter* short_write;
    obs::Counter* torn_write;
    obs::Counter* bit_flip;
    obs::Counter* fsync_lie;
    obs::Counter* rename_fail;
    obs::Counter* crash;
  };
  // lock:unguarded(handles resolved once in the constructor; increments
  // are lock-free atomics)
  Metrics metrics_;
};

}  // namespace cbl::chaos
