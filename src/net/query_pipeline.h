// Group-commit query coalescing: concurrent callers blocked in serve()
// are drained by one leader into a single OprfServer::evaluate_batch
// call, so N in-flight queries pay one batched encode (one field
// inversion) instead of N. The first caller to find the queue leaderless
// becomes the leader; everyone arriving while a batch is in flight
// queues up and is served by the next drain. Near idle, batches stay at
// size ~1 and the leader hand-off is the only added wait (measured in
// DESIGN.md "Batched serving"). Every BlocklistServiceNode serves its
// queries through a pipeline.
//
// Backpressure is shed-before-enqueue: a query arriving at a full queue
// is refused with kRateLimited (plus a retry hint) without ever
// occupying a batch slot or touching crypto. This is the node's only
// load shedding; a modelled capacity limit lives in the load harness
// (load::VirtualQueue), in front of the node.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/thread_safety.h"
#include "net/service_node.h"
#include "oprf/server.h"

namespace cbl::net {

struct PipelineOptions {
  /// Bound on queries waiting for a leader; arrivals beyond it are shed
  /// with kRateLimited before enqueue.
  std::size_t max_queue = 256;
};

/// Thread-safe batched serving front for an OprfServer. serve() may be
/// called concurrently from any number of threads; the underlying
/// server's own locking (shared data lock, limiter/rng mutexes) makes
/// the batched evaluations safe against concurrent rebuilds.
class QueryPipeline {
 public:
  /// Max queries drained into one evaluate_batch call.
  static constexpr std::size_t kMaxBatch = 64;
  /// Retry-after hint attached to pipeline sheds, in ms.
  static constexpr std::uint32_t kShedRetryAfterMs = 5;

  QueryPipeline(oprf::OprfServer& server, PipelineOptions options);
  QueryPipeline(const QueryPipeline&) = delete;
  QueryPipeline& operator=(const QueryPipeline&) = delete;

  struct ServeResult {
    Status status = Status::kBadRequest;
    /// Serialized QueryResponse when status == kOk; empty otherwise.
    Bytes body;
    /// Backoff hint for pipeline sheds; 0 on the server's own rate
    /// limit, where the node attaches NodeLimits::retry_after_hint_ms.
    std::uint32_t retry_after_ms = 0;
  };

  /// Parses one query body, rides a crypto batch with whatever else is
  /// in flight, and returns this query's result. Blocks the caller until
  /// its batch completes.
  ServeResult serve(ByteView query_body) CBL_EXCLUDES(mutex_);

 private:
  /// One caller's slot in the queue. Lives on the caller's stack; every
  /// field (including `done` and `result`, written by the batch leader)
  /// is accessed only under mutex_ — that convention can't be expressed
  /// as an annotation because the capability is not a member of Pending.
  struct Pending {
    const oprf::QueryRequest* request = nullptr;
    ServeResult result;
    bool done = false;
  };

  /// Runs one evaluate_batch over `batch` and fills every result.
  /// Called without mutex_ held.
  void run_batch(std::vector<Pending*>& batch) CBL_EXCLUDES(mutex_);

  /// lock:unguarded(bound in the ctor; OprfServer does its own locking)
  oprf::OprfServer& server_;
  const std::size_t max_queue_;

  cbl::Mutex mutex_;  // lock: queue, leadership, and every queued Pending
  std::condition_variable cv_;
  std::deque<Pending*> queue_ CBL_GUARDED_BY(mutex_);
  bool leader_active_ CBL_GUARDED_BY(mutex_) = false;

  // Metric handles resolved once in the constructor, stable thereafter.
  obs::Counter* enqueued_total_;   // lock:unguarded(ctor-set, then read-only)
  obs::Counter* shed_total_;       // lock:unguarded(ctor-set, then read-only)
  obs::Counter* batches_total_;    // lock:unguarded(ctor-set, then read-only)
  obs::Counter* crypto_ns_total_;  // lock:unguarded(ctor-set, then read-only)
  obs::Histogram* batch_size_;     // lock:unguarded(ctor-set, then read-only)
  obs::Gauge* queue_depth_;        // lock:unguarded(ctor-set, then read-only)
};

}  // namespace cbl::net
