// Provider-side transparency publisher: once per epoch it reads the
// buckets the OPRF server changed since the last publication, diffs
// them against its own copy into a signed EpochDelta, updates its kept
// bucket tree in place, appends the epoch record to the transparency
// log, and signs a fresh Checkpoint. It answers each wallet's sync with
// one SyncBundle read from one publication, which the service node
// serves verbatim (see net/service_node.h); the publisher itself never
// touches the wire.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/rng.h"
#include "common/thread_safety.h"
#include "nizk/signature.h"
#include "obs/metrics.h"
#include "oprf/server.h"
#include "tlog/checkpoint.h"
#include "tlog/delta.h"
#include "tlog/log.h"

namespace cbl::tlog {

class EpochPublisher {
 public:
  /// `key` is the provider's long-lived transparency signing key; its
  /// public half is what clients pin (ResilientClient::pin_tlog_key).
  EpochPublisher(nizk::SigningKey key, Rng& rng);

  ec::RistrettoPoint public_key() const { return key_.pk; }

  // Every method below locks the publisher's one mutex, so any number of
  // nodes may share the publisher.

  /// Publishes the server's CURRENT epoch: reads the epoch and the
  /// buckets changed since the last publication in one server read,
  /// emits the signed delta from the previously published epoch, appends
  /// the log record, and re-signs the checkpoint. Costs the changed
  /// buckets, except after a key change, which re-reads every bucket.
  /// Idempotent per epoch — calling again without an epoch change is a
  /// no-op. Every call must pass the same server. Returns the checkpoint.
  Checkpoint publish_epoch(const oprf::OprfServer& server)
      CBL_EXCLUDES(mutex_);

  /// The latest signed checkpoint; publish_epoch must have run once.
  Checkpoint latest_checkpoint() const CBL_EXCLUDES(mutex_);

  /// Publishes (as publish_epoch), then answers `request` from that one
  /// publication with the parts SyncBundle lists: deltas from the mirror
  /// epoch up to the checkpoint (none when it is not behind), an audit
  /// path when any bucket is published. nullopt when known_size exceeds
  /// the log or no delta chain leaves the mirror epoch.
  std::optional<SyncBundle> sync(const oprf::OprfServer& server,
                                 const SyncRequest& request)
      CBL_EXCLUDES(mutex_);

 private:
  void publish_locked(const oprf::OprfServer& server) CBL_REQUIRES(mutex_);

  const nizk::SigningKey key_;
  Rng& rng_ CBL_GUARDED_BY(mutex_);  // drawn for signatures

  mutable cbl::Mutex mutex_;  // lock: log, buckets, tree, checkpoint, deltas
  TransparencyLog log_ CBL_GUARDED_BY(mutex_);
  /// Snapshot at the latest published epoch.
  BucketMap buckets_ CBL_GUARDED_BY(mutex_);
  std::optional<BucketTree> bucket_tree_ CBL_GUARDED_BY(mutex_);
  Checkpoint checkpoint_ CBL_GUARDED_BY(mutex_);
  std::uint64_t published_epoch_ CBL_GUARDED_BY(mutex_) = 0;
  /// Every delta signed, keyed by from_epoch.
  std::map<std::uint64_t, EpochDelta> deltas_ CBL_GUARDED_BY(mutex_);

  struct Metrics {
    obs::Counter* epochs_published;
    obs::Gauge* log_size;
  };
  // lock:unguarded(handles resolved once in the constructor; updates are
  // lock-free atomics)
  Metrics metrics_;
};

}  // namespace cbl::tlog
