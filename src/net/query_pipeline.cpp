#include "net/query_pipeline.h"

#include <algorithm>
#include <chrono>

#include "common/thread_safety.h"
#include "obs/trace.h"
#include "oprf/wire.h"

namespace cbl::net {

QueryPipeline::QueryPipeline(oprf::OprfServer& server, PipelineOptions options)
    : server_(server),
      max_queue_(std::max<std::size_t>(options.max_queue, 1)) {
  auto& reg = obs::MetricsRegistry::global();
  enqueued_total_ = &reg.counter("cbl_net_pipeline_enqueued_total", {},
                                 "Queries admitted to the pipeline queue");
  shed_total_ = &reg.counter(
      "cbl_net_pipeline_shed_total", {},
      "Queries refused at a full pipeline queue (never occupied a batch slot)");
  batches_total_ =
      &reg.counter("cbl_net_pipeline_batches_total", {},
                   "evaluate_batch calls issued by pipeline leaders");
  batch_size_ = &reg.histogram(
      "cbl_net_pipeline_batch_size",
      obs::Histogram::log_buckets(1.0, 4096.0, 4), {},
      "Queries coalesced per evaluate_batch call");
  queue_depth_ = &reg.gauge("cbl_net_pipeline_queue_depth", {},
                            "Queries waiting for a pipeline leader");
  crypto_ns_total_ = &reg.counter(
      "cbl_net_pipeline_crypto_ns_total", {},
      "Real CPU ns spent in batched OPRF evaluation (leader threads)");
}

void QueryPipeline::run_batch(std::vector<Pending*>& batch) {
  CBL_SPAN("net.pipeline.batch");
  batches_total_->inc();
  batch_size_->observe(static_cast<double>(batch.size()));

  // evaluate_batch needs contiguous requests; each caller owns its own
  // parsed request on its stack, so gather copies.
  std::vector<oprf::QueryRequest> requests;
  requests.reserve(batch.size());
  for (const Pending* p : batch) requests.push_back(*p->request);

  const auto crypto_begin = std::chrono::steady_clock::now();
  const auto outcomes = server_.evaluate_batch(requests);
  const auto crypto_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - crypto_begin);
  if (crypto_ns.count() > 0) {
    crypto_ns_total_->inc(static_cast<std::uint64_t>(crypto_ns.count()));
  }

  {
    CBL_SPAN("net.pipeline.serialize");
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ServeResult& result = batch[i]->result;
      switch (outcomes[i].status) {
        case oprf::OprfServer::BatchOutcome::Status::kOk:
          result.status = Status::kOk;
          result.body = oprf::serialize(outcomes[i].response);
          break;
        case oprf::OprfServer::BatchOutcome::Status::kBadRequest:
          result.status = Status::kBadRequest;
          break;
        case oprf::OprfServer::BatchOutcome::Status::kRateLimited:
          // Server-level rate limit (auth / query budget): no hint here;
          // the node attaches NodeLimits::retry_after_hint_ms.
          result.status = Status::kRateLimited;
          break;
      }
    }
  }
}

QueryPipeline::ServeResult QueryPipeline::serve(ByteView query_body) {
  std::optional<oprf::QueryRequest> request;
  {
    CBL_SPAN("net.pipeline.parse");
    request = oprf::parse_query_request(query_body);
  }
  if (!request) {
    return ServeResult{Status::kBadRequest, {}, 0};
  }

  Pending pending;
  pending.request = &*request;

  MutexLock lock(mutex_);
  if (queue_.size() >= max_queue_) {
    // Shed before enqueue: a refused query never holds a batch slot and
    // never reaches the crypto layer.
    shed_total_->inc();
    return ServeResult{Status::kRateLimited, {}, kShedRetryAfterMs};
  }
  queue_.push_back(&pending);
  enqueued_total_->inc();
  queue_depth_->add(1.0);

  while (!pending.done) {
    if (leader_active_) {
      // Follower: a leader is batching. Wake when our result lands, or
      // when leadership frees up with our query still queued (the leader
      // finished its own query mid-backlog and handed off).
      while (!pending.done && leader_active_) {
        cv_.wait(lock.native());
      }
      continue;
    }
    // Leader: drain the queue in arrival order, one crypto batch at a
    // time, until our own query is served. Remaining backlog is handed
    // to the next waiting follower via the notify below.
    leader_active_ = true;
    while (!pending.done && !queue_.empty()) {
      const auto take = static_cast<std::ptrdiff_t>(
          std::min(kMaxBatch, queue_.size()));
      std::vector<Pending*> batch(queue_.begin(), queue_.begin() + take);
      queue_.erase(queue_.begin(), queue_.begin() + take);
      queue_depth_->add(-static_cast<double>(take));

      lock.unlock();
      run_batch(batch);
      lock.lock();
      for (Pending* p : batch) p->done = true;
      cv_.notify_all();
    }
    leader_active_ = false;
    // Our query is done but the queue may not be empty: every queued
    // Pending has its owner blocked above, so one of them takes over.
    cv_.notify_all();
  }
  return std::move(pending.result);
}

}  // namespace cbl::net
