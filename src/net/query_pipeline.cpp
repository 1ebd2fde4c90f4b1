#include "net/query_pipeline.h"

#include <algorithm>
#include <chrono>

#include "common/thread_safety.h"
#include "obs/trace.h"
#include "oprf/wire.h"

namespace cbl::net {

QueryPipeline::QueryPipeline(oprf::OprfServer& server, PipelineOptions options)
    : server_(server), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
  shards_.reserve(options_.shards);
  for (unsigned i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& reg = obs::MetricsRegistry::global();
  enqueued_total_ = &reg.counter("cbl_net_pipeline_enqueued_total", {},
                                 "Queries admitted to a shard queue");
  shed_total_ = &reg.counter(
      "cbl_net_pipeline_shed_total", {},
      "Queries refused at a full shard queue (never occupied a batch slot)");
  batches_total_ =
      &reg.counter("cbl_net_pipeline_batches_total", {},
                   "evaluate_batch calls issued by shard leaders");
  batch_size_ = &reg.histogram(
      "cbl_net_pipeline_batch_size",
      obs::Histogram::log_buckets(1.0, 4096.0, 4), {},
      "Queries coalesced per evaluate_batch call");
  queue_depth_ = &reg.gauge("cbl_net_pipeline_queue_depth", {},
                            "Queries waiting for a shard leader, all shards");
  crypto_ns_total_ = &reg.counter(
      "cbl_net_pipeline_crypto_ns_total", {},
      "Real CPU ns spent in batched OPRF evaluation (leader threads)");
}

std::size_t QueryPipeline::shard_of(const oprf::QueryRequest& request) const {
  // FNV-1a over the masked query encoding. The encoding is public wire
  // data (it already crossed the transport), so keying the shard choice
  // on it leaks nothing — and a blinded point is uniform, so shards
  // balance without any further mixing.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t byte : request.masked_query) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % shards_.size());
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

  std::vector<oprf::OprfServer::BatchOutcome> outcomes;
  const auto crypto_begin = std::chrono::steady_clock::now();
  exec::WorkerPool* pool = options_.pool;
  const unsigned workers = pool != nullptr ? pool->threads() : 0;
  if (workers > 1 && requests.size() >= 2 * static_cast<std::size_t>(workers)) {
    // Sub-batch split: each worker runs evaluate_batch on a contiguous
    // slice. Slicing is deterministic (exec::parallel_for_chunks), and
    // evaluate_batch is per-request independent, so the merged outcomes
    // are identical to one big batch — only the encode amortization
    // granularity changes.
    outcomes.resize(requests.size());
    exec::parallel_for_chunks(
        pool, requests.size(), workers,
        [&](std::size_t begin, std::size_t end) {
          auto part = server_.evaluate_batch(
              std::span<const oprf::QueryRequest>(requests).subspan(
                  begin, end - begin));
          for (std::size_t j = 0; j < part.size(); ++j) {
            outcomes[begin + j] = std::move(part[j]);
          }
        });
  } else {
    outcomes = server_.evaluate_batch(requests);
  }
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
          // Server-level rate limit (auth / query budget): the caller
          // supplies its own hint (NodeLimits::retry_after_hint_ms).
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

  Shard& shard = *shards_[shard_of(*request)];
  Pending pending;
  pending.request = &*request;

  MutexLock lock(shard.mutex);
  if (shard.queue.size() >= options_.max_queue) {
    // Shed before enqueue: a refused query never holds a batch slot and
    // never reaches the crypto layer.
    shed_total_->inc();
    return ServeResult{Status::kRateLimited, {}, options_.shed_retry_after_ms};
  }
  shard.queue.push_back(&pending);
  enqueued_total_->inc();
  queue_depth_->add(1.0);

  while (!pending.done) {
    if (shard.leader_active) {
      // Follower: a leader is batching. Wake when our result lands, or
      // when leadership frees up with our query still queued (the leader
      // finished its own query mid-backlog and handed off).
      while (!pending.done && shard.leader_active) {
        shard.cv.wait(lock.native());
      }
      continue;
    }
    // Leader: drain the queue in arrival order, one crypto batch at a
    // time, until our own query is served. Remaining backlog is handed
    // to the next waiting follower via the notify below.
    shard.leader_active = true;
    while (!pending.done && !shard.queue.empty()) {
      const std::size_t take =
          std::min(options_.max_batch, shard.queue.size());
      std::vector<Pending*> batch(shard.queue.begin(),
                                  shard.queue.begin() +
                                      static_cast<std::ptrdiff_t>(take));
      shard.queue.erase(shard.queue.begin(),
                        shard.queue.begin() +
                            static_cast<std::ptrdiff_t>(take));
      queue_depth_->add(-static_cast<double>(take));

      lock.unlock();
      run_batch(batch);
      lock.lock();
      for (Pending* p : batch) p->done = true;
      shard.cv.notify_all();
    }
    shard.leader_active = false;
    // Our query is done but the queue may not be empty: every queued
    // Pending has its owner blocked above, so one of them takes over.
    shard.cv.notify_all();
  }
  return std::move(pending.result);
}

}  // namespace cbl::net
