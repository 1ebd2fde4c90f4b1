// Provider-side transparency publisher: once per epoch it reads the
// buckets the OPRF server changed since the last publication, diffs
// them against its own copy into a signed EpochDelta, updates its kept
// bucket tree in place, appends the epoch record to the transparency
// log, and signs a fresh Checkpoint. The service node
// serves its artifacts verbatim (see net/service_node.h); the publisher
// itself never touches the wire.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/rng.h"
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

  const ec::RistrettoPoint& public_key() const { return key_.pk; }

  /// Publishes the server's CURRENT epoch: reads the epoch and the
  /// buckets changed since the last publication in one server read,
  /// emits the signed delta from the previously published epoch, appends
  /// the log record, and re-signs the checkpoint. Costs the changed
  /// buckets, except after a key change, which re-reads every bucket.
  /// Idempotent per epoch — calling again without an epoch change is a
  /// no-op. Every call must pass the same server. Returns the checkpoint.
  const Checkpoint& publish_epoch(const oprf::OprfServer& server);

  /// The latest signed checkpoint; publish_epoch must have run once.
  const Checkpoint& latest_checkpoint() const { return checkpoint_; }
  bool published() const { return log_.size() > 0; }

  /// The signed one-step delta LEAVING `from_epoch` (i.e. bridging it to
  /// the next published epoch), or nullopt if unknown. Clients walk
  /// these hop by hop.
  std::optional<EpochDelta> delta_from(std::uint64_t from_epoch) const;

  /// Composite audit path for `prefix` at the latest epoch, or nullopt
  /// if the prefix has no bucket.
  std::optional<AuditPath> audit_path(std::uint32_t prefix) const;

  ConsistencyProofMsg consistency(std::uint64_t old_size) const;

  /// The latest published bucket snapshot (full-download baseline).
  const BucketMap& current_buckets() const { return buckets_; }
  const TransparencyLog& log() const { return log_; }

 private:
  nizk::SigningKey key_;
  Rng& rng_;

  TransparencyLog log_;
  BucketMap buckets_;  // snapshot at the latest published epoch
  std::optional<BucketTree> bucket_tree_;
  Checkpoint checkpoint_;
  std::uint64_t published_epoch_ = 0;
  std::map<std::uint64_t, EpochDelta> deltas_;  // keyed by from_epoch

  struct Metrics {
    obs::Counter* epochs_published;
    obs::Gauge* log_size;
  };
  Metrics metrics_;
};

}  // namespace cbl::tlog
