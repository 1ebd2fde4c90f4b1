// wire:parser
#include "net/service_node.h"

#include <algorithm>
#include <chrono>

#include "ec/codec.h"
#include "hash/blake2b.h"
#include "net/query_pipeline.h"
#include "tlog/auditor.h"
#include "tlog/publisher.h"

namespace cbl::net {

namespace {

/// Keyed-BLAKE2b integrity tag over a sealed (status || body) prefix.
/// Domain-keyed so a frame checksum can never collide with another use
/// of BLAKE2b in the tree.
Bytes frame_checksum(ByteView sealed) {
  static const Bytes key = to_bytes("cbl/net/frame/v1");
  return hash::Blake2b::digest(sealed, kFrameChecksumSize, key);
}

/// Real elapsed nanoseconds between two steady-clock points. Stage CPU
/// accounting deliberately uses wall time, not the obs registry clock:
/// the registry clock is virtual in load harnesses, while per-stage
/// cost is a property of the actual machine.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point begin,
                         std::chrono::steady_clock::time_point end) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin);
  return d.count() > 0 ? static_cast<std::uint64_t>(d.count()) : 0u;
}

}  // namespace

Bytes encode_response_frame(Status status, ByteView body) {
  Bytes out;
  out.reserve(1 + body.size() + kFrameChecksumSize);
  out.push_back(static_cast<std::uint8_t>(status));
  append(out, body);
  const Bytes sum = frame_checksum(out);
  append(out, sum);
  return out;
}

Bytes encode_retry_after(std::uint32_t hint_ms) {
  ec::WireWriter w;
  w.u32(hint_ms);
  return w.take();
}

Bytes encode_info(const ServiceInfo& info) {
  ec::WireWriter w;
  w.u32(info.lambda).u8(info.oracle_kind);
  w.u32(info.argon2_memory_kib).u32(info.argon2_time_cost);
  w.u64(info.epoch).u64(info.entry_count);
  return w.take();
}

std::optional<ServiceInfo> decode_info(ByteView data) {
  ec::WireReader r(data);
  ServiceInfo info;
  info.lambda = r.u32();
  info.oracle_kind = r.u8();
  if (info.oracle_kind > 1) r.fail();
  info.argon2_memory_kib = r.u32();
  info.argon2_time_cost = r.u32();
  info.epoch = r.u64();
  info.entry_count = r.u64();
  if (!r.finish()) return std::nullopt;
  return info;
}

std::optional<RequestFrame> parse_request_frame(ByteView frame) {
  cbl::ByteReader r(frame);
  RequestFrame parsed;
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case static_cast<std::uint8_t>(Method::kQuery):
      // The query body is parsed by oprf::parse_query_request; pass it
      // through uninterpreted.
      parsed.method = Method::kQuery;
      parsed.body = r.view(r.remaining());
      break;
    case static_cast<std::uint8_t>(Method::kPrefixList):
    case static_cast<std::uint8_t>(Method::kInfo):
    case static_cast<std::uint8_t>(Method::kTlogCheckpoint):
    case static_cast<std::uint8_t>(Method::kTlogBuckets):
      // Bodyless methods: trailing bytes after the tag are malformation,
      // not padding (regression: PrefixListRejectsTrailingBody).
      parsed.method = static_cast<Method>(tag);
      break;
    case static_cast<std::uint8_t>(Method::kTlogDelta):
    case static_cast<std::uint8_t>(Method::kTlogConsistency):
      // Exactly one u64 argument (from_epoch / old_size).
      parsed.method = static_cast<Method>(tag);
      parsed.body = r.view(8);
      break;
    case static_cast<std::uint8_t>(Method::kTlogAuditPath):
      // Exactly one u32 argument (the prefix).
      parsed.method = static_cast<Method>(tag);
      parsed.body = r.view(4);
      break;
    default:
      r.fail();
      break;
  }
  if (!r.finish()) return std::nullopt;
  return parsed;
}

std::optional<ResponseFrame> parse_response_frame(ByteView frame) {
  // Integrity first: a frame whose trailing checksum does not match its
  // (status || body) prefix is malformed as a whole — bit flips and
  // truncation land here, never in the body parsers.
  if (frame.size() < 1 + kFrameChecksumSize) return std::nullopt;
  const std::size_t sealed_len = frame.size() - kFrameChecksumSize;
  const ByteView sealed = frame.first(sealed_len);
  const ByteView tag = frame.subspan(sealed_len);
  const Bytes expect = frame_checksum(sealed);
  if (!std::equal(expect.begin(), expect.end(), tag.begin(), tag.end())) {
    return std::nullopt;
  }
  cbl::ByteReader r(sealed);
  ResponseFrame parsed;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::kRateLimited)) r.fail();
  parsed.status = static_cast<Status>(status);
  parsed.body = r.view(r.remaining());
  if (!r.finish()) return std::nullopt;
  return parsed;
}

BlocklistServiceNode::BlocklistServiceNode(Transport& transport,
                                           std::string endpoint,
                                           oprf::OprfServer& server,
                                           oprf::Oracle oracle,
                                           NodeLimits limits,
                                           QueryPipeline* pipeline,
                                           tlog::EpochPublisher* publisher)
    : transport_(&transport),
      endpoint_(std::move(endpoint)),
      server_(server),
      oracle_(oracle),
      limits_(limits),
      owned_pipeline_(pipeline != nullptr
                          ? nullptr
                          : std::make_unique<QueryPipeline>(
                                server, PipelineOptions())),
      pipeline_(pipeline != nullptr ? pipeline : owned_pipeline_.get()),
      publisher_(publisher) {
  auto& registry = obs::MetricsRegistry::global();
  const auto request_counter = [&](const char* method) {
    return &registry.counter("cbl_net_requests_total", {{"method", method}},
                             "Service requests by wire method");
  };
  const auto response_counter = [&](const char* status) {
    return &registry.counter("cbl_net_responses_total", {{"status", status}},
                             "Service responses by status");
  };
  requests_query_ = request_counter("query");
  requests_prefix_list_ = request_counter("prefix_list");
  requests_info_ = request_counter("info");
  requests_tlog_ = request_counter("tlog");
  requests_unknown_ = request_counter("unknown");
  responses_ok_ = response_counter("ok");
  responses_bad_request_ = response_counter("bad_request");
  responses_rate_limited_ = response_counter("rate_limited");
  const auto stage_counter = [&](const char* stage) {
    return &registry.counter("cbl_net_stage_cpu_ns_total",
                             {{"stage", stage}},
                             "Real CPU ns spent per query-serving stage");
  };
  stage_parse_ns_ = stage_counter("parse");
  stage_crypto_ns_ = stage_counter("crypto");
  stage_seal_ns_ = stage_counter("seal");
  transport.register_endpoint(
      endpoint_, [this](ByteView frame) { return handle_frame(frame); });
}

BlocklistServiceNode::~BlocklistServiceNode() {
  transport_->unregister_endpoint(endpoint_);
}

obs::Counter& BlocklistServiceNode::method_counter(Method method) {
  switch (method) {
    case Method::kQuery:
      return *requests_query_;
    case Method::kPrefixList:
      return *requests_prefix_list_;
    case Method::kInfo:
      return *requests_info_;
    case Method::kTlogCheckpoint:
    case Method::kTlogDelta:
    case Method::kTlogAuditPath:
    case Method::kTlogConsistency:
    case Method::kTlogBuckets:
      return *requests_tlog_;
  }
  return *requests_unknown_;
}

obs::Counter& BlocklistServiceNode::status_counter(Status status) {
  switch (status) {
    case Status::kOk:
      return *responses_ok_;
    case Status::kRateLimited:
      return *responses_rate_limited_;
    case Status::kBadRequest:
      break;
  }
  return *responses_bad_request_;
}

Bytes BlocklistServiceNode::respond(Status status, ByteView body) {
  status_counter(status).inc();
  return encode_response_frame(status, body);
}

std::optional<Bytes> BlocklistServiceNode::handle_frame(ByteView frame) {
  const auto parse_begin = std::chrono::steady_clock::now();
  const auto parsed = parse_request_frame(frame);
  const std::uint64_t parse_ns =
      elapsed_ns(parse_begin, std::chrono::steady_clock::now());
  if (!parsed) {
    requests_unknown_->inc();
    return respond(Status::kBadRequest);
  }
  method_counter(parsed->method).inc();

  switch (parsed->method) {
    case Method::kQuery:
      return handle_query(parsed->body, parse_ns);
    case Method::kPrefixList: {
      const Bytes serialized =
          oprf::serialize_prefix_list(server_.prefix_list());
      return respond(Status::kOk, serialized);
    }
    case Method::kInfo: {
      ServiceInfo info;
      info.lambda = server_.lambda();
      info.oracle_kind =
          oracle_.kind() == oprf::Oracle::Kind::kSlow ? 1 : 0;
      if (info.oracle_kind == 1) {
        info.argon2_memory_kib = oracle_.argon2_params().memory_kib;
        info.argon2_time_cost = oracle_.argon2_params().time_cost;
      }
      info.epoch = server_.epoch();
      info.entry_count = server_.entry_count();
      const Bytes encoded = encode_info(info);
      return respond(Status::kOk, encoded);
    }
    case Method::kTlogCheckpoint:
    case Method::kTlogDelta:
    case Method::kTlogAuditPath:
    case Method::kTlogConsistency:
    case Method::kTlogBuckets:
      return handle_tlog(parsed->method, parsed->body);
  }
  return respond(Status::kBadRequest);
}

Bytes BlocklistServiceNode::handle_query(ByteView body,
                                         std::uint64_t parse_ns) {
  stage_parse_ns_->inc(parse_ns);
  // The pipeline parses, coalesces with other in-flight queries, and
  // hands back the serialized response. The crypto stage includes time
  // blocked on the shared batch.
  const auto crypto_begin = std::chrono::steady_clock::now();
  auto result = pipeline_->serve(body);
  if (result.status == Status::kRateLimited) {
    const std::uint32_t hint = result.retry_after_ms != 0
                                   ? result.retry_after_ms
                                   : limits_.retry_after_hint_ms;
    if (hint > 0) result.body = encode_retry_after(hint);
  }
  stage_crypto_ns_->inc(
      elapsed_ns(crypto_begin, std::chrono::steady_clock::now()));
  status_counter(result.status).inc();
  const auto seal_begin = std::chrono::steady_clock::now();
  Bytes sealed = encode_response_frame(result.status, result.body);
  stage_seal_ns_->inc(elapsed_ns(seal_begin, std::chrono::steady_clock::now()));
  return sealed;
}

Bytes BlocklistServiceNode::handle_tlog(Method method, ByteView body) {
  if (publisher_ == nullptr) return respond(Status::kBadRequest);
  switch (method) {
    case Method::kTlogCheckpoint: {
      // Publish-on-demand (idempotent): the served checkpoint always
      // covers the server's current epoch.
      const auto& checkpoint = publisher_->publish_epoch(server_);
      return respond(Status::kOk, checkpoint.to_bytes());
    }
    case Method::kTlogDelta: {
      ec::WireReader r(body);
      const std::uint64_t from_epoch = r.u64();
      if (!r.finish()) return respond(Status::kBadRequest);
      const auto delta = publisher_->delta_from(from_epoch);
      if (!delta) return respond(Status::kBadRequest);
      return respond(Status::kOk, delta->to_bytes());
    }
    case Method::kTlogAuditPath: {
      ec::WireReader r(body);
      const std::uint32_t prefix = r.u32();
      if (!r.finish()) return respond(Status::kBadRequest);
      const auto path = publisher_->audit_path(prefix);
      if (!path) return respond(Status::kBadRequest);
      return respond(Status::kOk, tlog::encode_audit_path(*path));
    }
    case Method::kTlogConsistency: {
      ec::WireReader r(body);
      const std::uint64_t old_size = r.u64();
      if (!r.finish() || old_size > publisher_->log().size()) {
        return respond(Status::kBadRequest);
      }
      return respond(Status::kOk, tlog::encode_consistency_proof(
                                      publisher_->consistency(old_size)));
    }
    case Method::kTlogBuckets: {
      if (!publisher_->published()) return respond(Status::kBadRequest);
      return respond(Status::kOk,
                     tlog::encode_bucket_map(publisher_->current_buckets()));
    }
    default:
      return respond(Status::kBadRequest);
  }
}

RemoteBlocklistClient::RemoteBlocklistClient(Channel& channel,
                                             std::string endpoint, Rng& rng)
    : channel_(channel), endpoint_(std::move(endpoint)) {
  auto& registry = obs::MetricsRegistry::global();
  const auto outcome_counter = [&](const char* kind) {
    return &registry.counter("cbl_net_client_outcomes_total",
                             {{"endpoint", endpoint_}, {"kind", kind}},
                             "Remote client query outcomes by kind");
  };
  outcomes_ok_ = outcome_counter("ok");
  outcomes_unreachable_ = outcome_counter("unreachable");
  outcomes_malformed_ = outcome_counter("malformed");
  outcomes_rate_limited_ = outcome_counter("rate_limited");
  const auto sync_counter = [&](const char* result) {
    return &registry.counter("cbl_tlog_sync_total",
                             {{"endpoint", endpoint_}, {"result", result}},
                             "Verified transparency syncs by result");
  };
  sync_ok_ = sync_counter("ok");
  sync_transport_ = sync_counter("transport");
  sync_audit_ = sync_counter("audit");
  const auto sync_bytes_counter = [&](const char* kind) {
    return &registry.counter("cbl_tlog_sync_bytes_total",
                             {{"endpoint", endpoint_}, {"kind", kind}},
                             "Verified-sync body bytes by transfer kind");
  };
  sync_bytes_delta_ = sync_bytes_counter("delta");
  sync_bytes_full_ = sync_bytes_counter("full");

  const Bytes frame = {static_cast<std::uint8_t>(Method::kInfo)};
  const auto result = channel_.call(endpoint_, frame);
  if (!result.delivered) {
    throw ProtocolError("RemoteBlocklistClient: service info unavailable");
  }
  const auto response = parse_response_frame(result.response);
  if (!response || response->status != Status::kOk) {
    throw ProtocolError("RemoteBlocklistClient: service info unavailable");
  }
  const auto info = decode_info(response->body);
  if (!info || info->lambda == 0 || info->lambda > 32) {
    throw ProtocolError("RemoteBlocklistClient: malformed service info");
  }
  info_ = *info;

  // Mirror the service's oracle locally (lambda/oracle sync).
  oprf::Oracle oracle = oprf::Oracle::fast();
  if (info_.oracle_kind == 1) {
    hash::Argon2Params params;
    params.memory_kib = info_.argon2_memory_kib;
    params.time_cost = info_.argon2_time_cost;
    oracle = oprf::Oracle::slow(params);
  }
  client_.emplace(oracle, info_.lambda, rng);
}

std::optional<Bytes> RemoteBlocklistClient::call_tlog(Method method,
                                                      ByteView body) {
  Bytes frame = {static_cast<std::uint8_t>(method)};
  append(frame, body);
  const auto result = channel_.call(endpoint_, frame);
  if (!result.delivered) return std::nullopt;
  const auto response = parse_response_frame(result.response);
  if (!response || response->status != Status::kOk) {
    // A failed integrity checksum is channel damage; a non-kOk status is
    // a service that is not publishing (or a stale argument). Neither is
    // evidence of provider dishonesty.
    return std::nullopt;
  }
  return Bytes(response->body.begin(), response->body.end());
}

RemoteBlocklistClient::SyncReport RemoteBlocklistClient::verified_sync(
    tlog::Auditor& auditor) {
  using AuditStatus = tlog::Auditor::Status;
  SyncReport report;
  const auto finish = [&](SyncReport::Failure failure) {
    report.failure = failure;
    report.ok = failure == SyncReport::Failure::kNone;
    report.epoch = auditor.has_state() ? auditor.mirror_epoch() : 0;
    switch (failure) {
      case SyncReport::Failure::kNone: sync_ok_->inc(); break;
      case SyncReport::Failure::kTransport: sync_transport_->inc(); break;
      case SyncReport::Failure::kAudit: sync_audit_->inc(); break;
    }
    sync_bytes_delta_->inc(report.delta_bytes);
    sync_bytes_full_->inc(report.full_bytes);
    return report;
  };
  const auto transport = [&] {
    return finish(SyncReport::Failure::kTransport);
  };
  // A failed auditor check has latched distrust already. Evidence the
  // checks never see (a body that passed the checksum but does not
  // decode) is latched here, under the status of the artifact at fault.
  const auto audit_failed = [&] {
    return finish(SyncReport::Failure::kAudit);
  };
  const auto reject = [&](AuditStatus reason) {
    auditor.reject(reason);
    return audit_failed();
  };
  if (!auditor.trusted()) return audit_failed();

  // 1. Latest signed checkpoint.
  const auto cp_body = call_tlog(Method::kTlogCheckpoint, {});
  if (!cp_body) return transport();
  const auto checkpoint = tlog::Checkpoint::from_bytes(*cp_body);
  if (!checkpoint) return reject(AuditStatus::kBadSignature);

  // 2. Append-only consistency when the log grew since our last accepted
  // checkpoint.
  std::optional<tlog::ConsistencyProofMsg> consistency;
  const auto& previous = auditor.latest_checkpoint();
  if (previous && checkpoint->tree_size > previous->tree_size) {
    ec::WireWriter w;
    w.u64(previous->tree_size);
    const auto proof_body = call_tlog(Method::kTlogConsistency, w.take());
    if (!proof_body) return transport();
    const auto parsed = tlog::parse_consistency_proof(*proof_body);
    if (!parsed) return reject(AuditStatus::kInconsistent);
    consistency = *parsed;
  }
  if (auditor.observe_checkpoint(*checkpoint,
                                 consistency ? &*consistency : nullptr) !=
      AuditStatus::kOk) {
    return audit_failed();
  }

  // 3. Advance the mirror: a full verified download on first contact,
  // then signed one-step deltas up to the checkpoint. The service keeps
  // every hop, so one it does not serve is a transport failure.
  if (!auditor.has_state()) {
    const auto buckets_body = call_tlog(Method::kTlogBuckets, {});
    if (!buckets_body) return transport();
    auto snapshot = tlog::parse_bucket_map(*buckets_body);
    if (!snapshot) return reject(AuditStatus::kBadProof);
    if (auditor.adopt_snapshot(std::move(*snapshot)) != AuditStatus::kOk) {
      return audit_failed();
    }
    report.full_bytes += buckets_body->size();
  }
  while (auditor.mirror_epoch() < checkpoint->epoch) {
    ec::WireWriter w;
    w.u64(auditor.mirror_epoch());
    const auto delta_body = call_tlog(Method::kTlogDelta, w.take());
    if (!delta_body) return transport();
    const auto delta = tlog::EpochDelta::from_bytes(*delta_body);
    if (!delta) return reject(AuditStatus::kBadDelta);
    if (auditor.apply_delta(*delta) != AuditStatus::kOk) {
      return audit_failed();
    }
    report.delta_bytes += delta_body->size();
    ++report.deltas_applied;
  }
  if (auditor.mirror_epoch() != checkpoint->epoch) {
    // The mirror already stands past the signed checkpoint's epoch: the
    // checkpoint contradicts deltas this provider signed before.
    return reject(AuditStatus::kBadDelta);
  }

  // 4. Bind the mirror root to the signed checkpoint with one audit
  // path. Any mirrored prefix works — the path pins the epoch record
  // (and with it the full bucket root) under the checkpoint; an empty
  // bucket set has nothing to bind and nothing to audit.
  if (const auto audit_prefix = auditor.first_prefix()) {
    ec::WireWriter w;
    w.u32(*audit_prefix);
    const auto path_body = call_tlog(Method::kTlogAuditPath, w.take());
    if (!path_body) return transport();
    const auto path = tlog::parse_audit_path(*path_body);
    if (!path) return reject(AuditStatus::kBadProof);
    if (auditor.verify_audit_path(*audit_prefix, *path) !=
        AuditStatus::kOk) {
      return audit_failed();
    }
  }
  return finish(SyncReport::Failure::kNone);
}

bool RemoteBlocklistClient::sync_prefix_list() {
  const Bytes frame = {static_cast<std::uint8_t>(Method::kPrefixList)};
  const auto result = channel_.call(endpoint_, frame);
  if (!result.delivered) return false;
  const auto response = parse_response_frame(result.response);
  if (!response || response->status != Status::kOk) return false;
  const auto prefixes = oprf::parse_prefix_list(response->body);
  if (!prefixes) return false;
  client_->set_prefix_list(*prefixes);
  return true;
}

RemoteBlocklistClient::QueryOutcome RemoteBlocklistClient::query(
    std::string_view address) {
  QueryOutcome outcome = query_uncounted(address);
  switch (outcome.kind) {
    case QueryOutcome::Kind::kOk:
      outcomes_ok_->inc();
      break;
    case QueryOutcome::Kind::kUnreachable:
      outcomes_unreachable_->inc();
      break;
    case QueryOutcome::Kind::kMalformed:
      outcomes_malformed_->inc();
      break;
    case QueryOutcome::Kind::kRateLimited:
      outcomes_rate_limited_->inc();
      break;
  }
  return outcome;
}

RemoteBlocklistClient::QueryOutcome RemoteBlocklistClient::query_uncounted(
    std::string_view address) {
  QueryOutcome outcome;
  if (client_->has_prefix_list() && !client_->may_be_listed(address)) {
    outcome.kind = QueryOutcome::Kind::kOk;
    outcome.resolved_locally = true;
    return outcome;
  }

  const auto prepared = client_->prepare(address);
  Bytes frame = {static_cast<std::uint8_t>(Method::kQuery)};
  append(frame, oprf::serialize(prepared.request));

  const auto result = channel_.call(endpoint_, frame);
  outcome.rtt_ms = result.rtt_ms;
  if (!result.delivered) {
    outcome.kind = QueryOutcome::Kind::kUnreachable;
    return outcome;
  }
  const auto frame_parsed = parse_response_frame(result.response);
  if (!frame_parsed) {
    outcome.kind = QueryOutcome::Kind::kMalformed;
    return outcome;
  }
  if (frame_parsed->status == Status::kRateLimited) {
    // An optional 4-byte retry-after hint rides in the body.
    if (!frame_parsed->body.empty()) {
      cbl::ByteReader r(frame_parsed->body);
      const std::uint32_t hint_ms = r.u32();
      if (!r.finish()) {
        outcome.kind = QueryOutcome::Kind::kMalformed;
        return outcome;
      }
      outcome.retry_after_ms = hint_ms;
    }
    outcome.kind = QueryOutcome::Kind::kRateLimited;
    return outcome;
  }
  if (frame_parsed->status != Status::kOk) {
    outcome.kind = QueryOutcome::Kind::kMalformed;
    return outcome;
  }
  const auto response = oprf::parse_query_response(frame_parsed->body);
  if (!response) {
    outcome.kind = QueryOutcome::Kind::kMalformed;
    return outcome;
  }
  try {
    outcome.listed = client_->finish(prepared.pending, *response).listed;
    outcome.kind = QueryOutcome::Kind::kOk;
  } catch (const ProtocolError&) {
    outcome.kind = QueryOutcome::Kind::kMalformed;
  }
  return outcome;
}

}  // namespace cbl::net
