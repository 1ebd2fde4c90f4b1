#include "oprf/server.h"

#include <algorithm>
#include <thread>

#include "exec/parallel_for.h"
#include "hash/sha256.h"
#include "oprf/blind.h"

namespace cbl::oprf {

OprfServer::OprfServer(Oracle oracle, unsigned lambda, Rng& rng)
    : oracle_(oracle), lambda_(lambda), rng_(rng) {
  if (lambda == 0 || lambda > 32) {
    throw std::invalid_argument("OprfServer: lambda must be in [1,32]");
  }
  auto& reg = obs::MetricsRegistry::global();
  const auto query_counter = [&](const char* result) {
    return &reg.counter("cbl_oprf_queries_total", {{"result", result}},
                        "Online OPRF evaluations by outcome");
  };
  metrics_.queries_ok = query_counter("ok");
  metrics_.queries_rate_limited = query_counter("rate_limited");
  metrics_.queries_bad_request = query_counter("bad_request");
  metrics_.buckets_served =
      &reg.counter("cbl_oprf_buckets_served_total", {},
                   "Query responses that carried the full bucket");
  metrics_.buckets_omitted =
      &reg.counter("cbl_oprf_buckets_omitted_total", {},
                   "Query responses elided thanks to the client cache hint");
  metrics_.rebuilds = &reg.counter(
      "cbl_oprf_rebuilds_total", {},
      "Full preprocessing passes (setup and key rotations)");
  metrics_.eval_ms = &reg.histogram(
      "cbl_oprf_eval_ms", obs::Histogram::default_latency_ms_buckets(), {},
      "Server-side oblivious evaluation time per query");
  metrics_.rebuild_ms = &reg.histogram(
      "cbl_oprf_rebuild_ms", obs::Histogram::default_latency_ms_buckets(), {},
      "Blind-everything preprocessing duration");
  metrics_.bucket_size = &reg.histogram(
      "cbl_oprf_bucket_size", obs::Histogram::log_buckets(1.0, 1e6, 3), {},
      "Non-empty bucket sizes at each rebuild (the k of k-anonymity)");
  metrics_.entries =
      &reg.gauge("cbl_oprf_entries", {}, "Blocklist entries currently served");
  metrics_.epoch = &reg.gauge("cbl_oprf_epoch", {}, "Current key epoch");
  metrics_.buckets_nonempty =
      &reg.gauge("cbl_oprf_buckets_nonempty", {}, "Non-empty prefix buckets");
  metrics_.k_anonymity = &reg.gauge(
      "cbl_oprf_k_anonymity", {}, "Minimum non-empty bucket size");
}

OprfServer::~OprfServer() {
  mask_.wipe();
  half_mask_.wipe();
}

void OprfServer::refresh_data_gauges() {
  metrics_.entries->set(static_cast<double>(entry_index_.size()));
  metrics_.epoch->set(static_cast<double>(epoch_));
  metrics_.buckets_nonempty->set(static_cast<double>(buckets_.size()));
  std::size_t min_size = 0;
  for (const auto& [prefix, bucket] : buckets_) {
    const std::size_t n = bucket.blinded.size();
    min_size = min_size == 0 ? n : std::min(min_size, n);
  }
  metrics_.k_anonymity->set(static_cast<double>(min_size));
}

void OprfServer::setup(std::span<const std::string> entries,
                       unsigned num_threads) {
  WriterMutexLock lock(data_mutex_);
  entry_index_.clear();
  for (const auto& entry : entries) entry_index_.try_emplace(entry);
  rebuild(num_threads);
}

void OprfServer::rotate_key(unsigned num_threads) {
  WriterMutexLock lock(data_mutex_);
  rebuild(num_threads);
}

void OprfServer::restore_epoch(std::uint64_t floor) {
  WriterMutexLock lock(data_mutex_);
  if (epoch_ < floor) {
    epoch_ = floor;
    key_floor_ = floor + 1;
    note_epoch_locked();
    refresh_data_gauges();
  }
}

void OprfServer::set_epoch_listener(
    std::function<void(std::uint64_t)> listener) {
  WriterMutexLock lock(data_mutex_);
  epoch_listener_ = std::move(listener);
  // Cover epochs served before the hook existed.
  if (epoch_ > 0) note_epoch_locked();
}

void OprfServer::note_epoch_locked() {
  if (epoch_listener_) epoch_listener_(epoch_);
}

void OprfServer::rebuild(unsigned num_threads) {
  const auto& clock = obs::MetricsRegistry::global().clock();
  const std::uint64_t t0 = clock.now_ns();
  {
    // rng_mutex_ nested inside the held data_mutex_ (documented order:
    // data_mutex_ -> rng_mutex_) so the sampling cannot interleave with a
    // concurrent evaluation-proof draw.
    MutexLock rng_lock(rng_mutex_);
    mask_ = Secret(ec::Scalar::random(rng_));
  }
  half_mask_ = halve(mask_);
  key_commitment_ = ec::RistrettoPoint::base() * mask_;
  ++epoch_;
  key_floor_ = epoch_;
  note_epoch_locked();
  buckets_.clear();
  bucket_changed_at_.clear();

  // Blind all entries: b = H(q)^R, computed as H(q)^(R/2) batch-doubled so
  // each chunk pays one field inversion instead of one per entry. The
  // exponentiations dominate, so chunks run on short-lived threads
  // (exec::parallel_for_chunks slices by index only — the per-entry bytes
  // are identical for every thread count); bucket insertion stays
  // sequential.
  //
  // The worker lambda runs on threads that do not themselves hold
  // data_mutex_ — the exclusive lock held by THIS caller for the whole
  // parallel region is what makes the shared accesses safe. The analysis
  // cannot see across that hand-off, so the guarded state the workers
  // need is bound to locals here, under the lock. Each worker writes
  // only the index slots of its own chunk.
  std::vector<IndexSlot*> slots;
  slots.reserve(entry_index_.size());
  for (auto& slot : entry_index_) slots.push_back(&slot);
  const Secret<ec::Scalar> half_mask = half_mask_;
  auto work = [&](std::size_t begin, std::size_t end) {
    blind_into(std::span(slots).subspan(begin, end - begin), half_mask);
  };
  exec::parallel_for_chunks(slots.size(), num_threads, work);

  for (const auto* slot : slots) {
    const Entry& entry = slot->second;
    Bucket& bucket = buckets_[entry.prefix];
    bucket.blinded.push_back(entry.blinded);
    if (metadata_provider_) {
      bucket.metadata.push_back(
          seal_metadata(metadata_key(entry.blinded),
                        metadata_provider_(slot->first)));
    }
  }
  // Sort each bucket (with metadata riding along) for binary search and
  // for a canonical wire representation.
  for (auto& [prefix, bucket] : buckets_) {
    std::vector<std::size_t> order(bucket.blinded.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return bucket.blinded[a] < bucket.blinded[b];
    });
    Bucket sorted;
    sorted.blinded.reserve(order.size());
    for (const std::size_t i : order) {
      sorted.blinded.push_back(bucket.blinded[i]);
      if (!bucket.metadata.empty()) sorted.metadata.push_back(bucket.metadata[i]);
    }
    bucket = std::move(sorted);
  }

  metrics_.rebuilds->inc();
  metrics_.rebuild_ms->observe(
      static_cast<double>(clock.now_ns() - t0) / 1e6);
  for (const auto& [prefix, bucket] : buckets_) {
    metrics_.bucket_size->observe(
        static_cast<double>(bucket.blinded.size()));
  }
  refresh_data_gauges();
}

QueryResponse OprfServer::handle(const QueryRequest& request) {
  auto outcome = evaluate_batch(std::span<const QueryRequest>(&request, 1));
  if (outcome[0].status != BatchOutcome::Status::kOk) {
    throw ProtocolError(outcome[0].error);
  }
  return std::move(outcome[0].response);
}

std::vector<OprfServer::BatchOutcome> OprfServer::evaluate_batch(
    std::span<const QueryRequest> requests) {
  auto& registry = obs::MetricsRegistry::global();
  std::vector<BatchOutcome> out(requests.size());

  const auto fail = [&](std::size_t i, BatchOutcome::Status status,
                        const char* what) {
    out[i].status = status;
    out[i].error = what;
    (status == BatchOutcome::Status::kRateLimited
         ? metrics_.queries_rate_limited
         : metrics_.queries_bad_request)
        ->inc();
  };

  if (rate_limiting_.load(std::memory_order_acquire)) {
    // One limiter pass for the whole batch, each request counted
    // against its key's window as if it had arrived alone.
    MutexLock limiter_lock(limiter_mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto it = authorized_.find(requests[i].api_key);
      if (it == authorized_.end() || !it->second) {
        fail(i, BatchOutcome::Status::kRateLimited,
             "OprfServer: unauthorized api key");
      } else if (++window_counts_[requests[i].api_key] > max_per_window_) {
        fail(i, BatchOutcome::Status::kRateLimited,
             "OprfServer: rate limit exceeded");
      } else {
        out[i].status = BatchOutcome::Status::kOk;  // provisional
      }
    }
  } else {
    for (auto& o : out) o.status = BatchOutcome::Status::kOk;
  }

  ReaderMutexLock lock(data_mutex_);
  std::vector<std::size_t> live;
  std::vector<ec::RistrettoPoint> masked_points;
  live.reserve(requests.size());
  masked_points.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (out[i].status != BatchOutcome::Status::kOk) continue;
    if (requests[i].prefix >> lambda_ != 0) {
      fail(i, BatchOutcome::Status::kBadRequest,
           "OprfServer: prefix out of range for lambda");
      continue;
    }
    const auto masked = ec::RistrettoPoint::decode(requests[i].masked_query);
    if (!masked) {
      fail(i, BatchOutcome::Status::kBadRequest,
           "OprfServer: malformed masked query");
      continue;
    }
    live.push_back(i);
    masked_points.push_back(*masked);
  }

  // The crypto core: all exponentiations use R/2, two live requests per
  // pair ladder, and the shared batched encode doubles them back to
  // psi_i = masked_i^R.
  const std::uint64_t t0 = registry.clock().now_ns();
  const std::vector<ec::RistrettoPoint> halves =
      ec::RistrettoPoint::mul_batch(masked_points, half_mask_);
  const auto encodings = ec::RistrettoPoint::double_and_encode_batch(halves);
  if (!live.empty()) {
    const double per_query_ms =
        static_cast<double>(registry.clock().now_ns() - t0) / 1e6 /
        static_cast<double>(live.size());
    for (std::size_t k = 0; k < live.size(); ++k) {
      metrics_.eval_ms->observe(per_query_ms);
    }
  }

  for (std::size_t k = 0; k < live.size(); ++k) {
    const std::size_t i = live[k];
    const QueryRequest& request = requests[i];
    QueryResponse& response = out[i].response;
    response.evaluated = encodings[k];
    response.epoch = epoch_;
    if (request.want_evaluation_proof) {
      const ec::RistrettoPoint evaluated = halves[k] + halves[k];
      MutexLock rng_lock(rng_mutex_);
      response.evaluation_proof = nizk::DleqProof::prove(
          ec::RistrettoPoint::base(), key_commitment_, masked_points[k],
          evaluated, mask_.expose_secret(), kEvalProofDomain, rng_);
    }
    metrics_.queries_ok->inc();
    if (bucket_current_at(request.prefix, request.cached_epoch)) {
      response.bucket_omitted = true;
      metrics_.buckets_omitted->inc();
      continue;
    }
    metrics_.buckets_served->inc();
    const auto it = buckets_.find(request.prefix);
    if (it != buckets_.end()) {
      response.bucket = it->second.blinded;
      response.metadata = it->second.metadata;
    }
  }
  return out;
}

bool OprfServer::bucket_current_at(std::uint32_t prefix,
                                   std::uint64_t cached) const {
  if (cached > epoch_ || cached < key_floor_) return false;
  const auto it = bucket_changed_at_.find(prefix);
  return it == bucket_changed_at_.end() || it->second <= cached;
}

void OprfServer::blind_into(std::span<IndexSlot* const> slots,
                            const Secret<ec::Scalar>& half_mask) const {
  std::vector<Bytes> raw(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    raw[i] = to_bytes(slots[i]->first);
  }
  const auto halves = ec::RistrettoPoint::mul_batch(
      oracle_.map_to_group_batch(raw), half_mask);
  const auto encodings = ec::RistrettoPoint::double_and_encode_batch(halves);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i]->second = {Oracle::prefix(raw[i], lambda_), encodings[i]};
  }
}

std::uint32_t OprfServer::insert_into_bucket(const IndexSlot& slot) {
  const auto& [entry, listed] = slot;
  Bucket& bucket = buckets_[listed.prefix];
  const auto it = std::lower_bound(bucket.blinded.begin(),
                                   bucket.blinded.end(), listed.blinded);
  const auto offset = it - bucket.blinded.begin();
  bucket.blinded.insert(it, listed.blinded);
  if (metadata_provider_) {
    bucket.metadata.insert(bucket.metadata.begin() + offset,
                           seal_metadata(metadata_key(listed.blinded),
                                         metadata_provider_(entry)));
  }
  return listed.prefix;
}

void OprfServer::note_bucket_changes_locked(
    const std::vector<std::uint32_t>& prefixes) {
  ++epoch_;
  for (const std::uint32_t prefix : prefixes) {
    bucket_changed_at_[prefix] = epoch_;
  }
  note_epoch_locked();
  refresh_data_gauges();
}

std::size_t OprfServer::add_entries(std::span<const std::string> entries) {
  WriterMutexLock lock(data_mutex_);
  std::vector<IndexSlot*> added;
  for (const auto& entry : entries) {
    const auto [it, inserted] = entry_index_.try_emplace(entry);
    if (inserted) added.push_back(&*it);
  }
  if (added.empty()) return 0;
  blind_into(added, half_mask_);
  std::vector<std::uint32_t> touched;
  touched.reserve(added.size());
  for (const IndexSlot* slot : added) {
    touched.push_back(insert_into_bucket(*slot));
  }
  note_bucket_changes_locked(touched);
  return touched.size();
}

std::size_t OprfServer::remove_entries(std::span<const std::string> entries) {
  WriterMutexLock lock(data_mutex_);
  std::vector<std::uint32_t> touched;
  for (const auto& entry : entries) {
    const auto idx = entry_index_.find(entry);
    if (idx == entry_index_.end()) continue;
    const Entry listed = idx->second;
    entry_index_.erase(idx);
    const auto bucket_it = buckets_.find(listed.prefix);
    Bucket& bucket = bucket_it->second;
    const auto it = std::lower_bound(bucket.blinded.begin(),
                                     bucket.blinded.end(), listed.blinded);
    const auto offset = it - bucket.blinded.begin();
    bucket.blinded.erase(it);
    if (!bucket.metadata.empty()) {
      bucket.metadata.erase(bucket.metadata.begin() + offset);
    }
    if (bucket.blinded.empty()) buckets_.erase(bucket_it);
    touched.push_back(listed.prefix);
  }
  if (!touched.empty()) note_bucket_changes_locked(touched);
  return touched.size();
}

std::vector<std::uint32_t> OprfServer::prefix_list() const {
  ReaderMutexLock lock(data_mutex_);
  std::vector<std::uint32_t> out;
  out.reserve(buckets_.size());
  for (const auto& [prefix, bucket] : buckets_) out.push_back(prefix);
  return out;  // std::map iteration order is already sorted
}

OprfServer::BucketContents OprfServer::bucket_snapshot() const {
  return bucket_changes_since(kNoEpoch).buckets;
}

OprfServer::BucketChanges OprfServer::bucket_changes_since(
    std::uint64_t since) const {
  ReaderMutexLock lock(data_mutex_);
  BucketChanges out;
  out.epoch = epoch_;
  out.complete = since < key_floor_ || since > epoch_;
  if (out.complete) {
    for (const auto& [prefix, bucket] : buckets_) {
      out.buckets.emplace_hint(out.buckets.end(), prefix, bucket.blinded);
    }
    return out;
  }
  for (const auto& [prefix, changed_at] : bucket_changed_at_) {
    if (changed_at <= since) continue;
    const auto it = buckets_.find(prefix);
    out.buckets.emplace_hint(
        out.buckets.end(), prefix,
        it != buckets_.end() ? it->second.blinded
                             : std::vector<ec::RistrettoPoint::Encoding>{});
  }
  return out;
}

OprfServer::BucketStats OprfServer::stats() const {
  ReaderMutexLock lock(data_mutex_);
  BucketStats s;
  s.buckets_total = std::size_t{1} << lambda_;
  s.buckets_nonempty = buckets_.size();
  std::size_t total = 0;
  for (const auto& [prefix, bucket] : buckets_) {
    const std::size_t n = bucket.blinded.size();
    total += n;
    s.min_size = s.min_size == 0 ? n : std::min(s.min_size, n);
    s.max_size = std::max(s.max_size, n);
  }
  s.avg_size = s.buckets_total == 0
                   ? 0.0
                   : static_cast<double>(total) /
                         static_cast<double>(s.buckets_total);
  s.k_anonymity = s.min_size;
  QueryResponse probe;
  s.avg_response_bytes =
      probe.wire_size() +
      static_cast<std::size_t>(s.avg_size * sizeof(ec::RistrettoPoint::Encoding));
  return s;
}

std::vector<std::size_t> OprfServer::bucket_sizes() const {
  ReaderMutexLock lock(data_mutex_);
  std::vector<std::size_t> sizes;
  sizes.reserve(buckets_.size());
  for (const auto& [prefix, bucket] : buckets_) {
    sizes.push_back(bucket.blinded.size());
  }
  return sizes;
}

void OprfServer::enable_rate_limiting(std::uint32_t max_queries_per_window) {
  MutexLock limiter_lock(limiter_mutex_);
  max_per_window_ = max_queries_per_window;
  // Release store pairs with the acquire load in evaluate_batch:
  // the window bound above is visible before any limiter pass runs.
  rate_limiting_.store(true, std::memory_order_release);
}

void OprfServer::authorize_key(const std::string& key) {
  MutexLock limiter_lock(limiter_mutex_);
  authorized_[key] = true;
}

void OprfServer::revoke_key(const std::string& key) {
  MutexLock limiter_lock(limiter_mutex_);
  authorized_[key] = false;
}

void OprfServer::advance_window() {
  MutexLock limiter_lock(limiter_mutex_);
  window_counts_.clear();
}

void OprfServer::set_metadata_provider(MetadataProvider provider) {
  WriterMutexLock lock(data_mutex_);
  metadata_provider_ = std::move(provider);
}

std::array<std::uint8_t, 32> OprfServer::metadata_key(
    const ec::RistrettoPoint::Encoding& oprf_output) {
  const Bytes okm = hash::hkdf_sha256(
      ByteView(oprf_output.data(), oprf_output.size()),
      to_bytes("cbl/oprf/metadata/salt"), to_bytes("metadata-key"), 32);
  std::array<std::uint8_t, 32> key;
  std::copy(okm.begin(), okm.end(), key.begin());
  return key;
}

Bytes OprfServer::seal_metadata(const std::array<std::uint8_t, 32>& key,
                                ByteView plaintext) {
  // Stream-cipher encryption with a zero nonce is safe here because each
  // key is unique per (entry, epoch) pair; integrity from HMAC-SHA256/16.
  ChaChaRng stream(key);
  Bytes ciphertext(plaintext.begin(), plaintext.end());
  const Bytes pad = stream.bytes(ciphertext.size());
  for (std::size_t i = 0; i < ciphertext.size(); ++i) ciphertext[i] ^= pad[i];
  const auto tag = hash::hmac_sha256(key, ciphertext);
  Bytes out(tag.begin(), tag.begin() + 16);
  append(out, ciphertext);
  return out;
}

std::optional<Bytes> OprfServer::open_metadata(
    const std::array<std::uint8_t, 32>& key, ByteView ciphertext) {
  if (ciphertext.size() < 16) return std::nullopt;
  const ByteView tag(ciphertext.data(), 16);
  const ByteView body(ciphertext.data() + 16, ciphertext.size() - 16);
  const auto expected = hash::hmac_sha256(key, body);
  if (!constant_time_eq(tag, ByteView(expected.data(), 16))) {
    return std::nullopt;
  }
  ChaChaRng stream(key);
  Bytes plaintext(body.begin(), body.end());
  const Bytes pad = stream.bytes(plaintext.size());
  for (std::size_t i = 0; i < plaintext.size(); ++i) plaintext[i] ^= pad[i];
  return plaintext;
}

}  // namespace cbl::oprf
