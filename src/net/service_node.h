// The deployable faces of the query service: a node that exposes an
// OprfServer over the transport, and a remote client that speaks the
// binary protocol, one call per request (ResilientClient layers retries,
// backoff, hedging and breakers on top of it). Frames are a 1-byte
// method tag followed by the message body; responses are a 1-byte status
// followed by the body and a 4-byte keyed-BLAKE2b integrity checksum.
//
// The checksum stands in for the record integrity TLS provides in a
// real deployment: it makes channel corruption (bit flips, truncation)
// detectable, so a damaged response surfaces as kMalformed instead of a
// wrong membership verdict. It is NOT a trust mechanism — a malicious
// server can checksum lies; server honesty is handled by the
// verifiable-OPRF layer (pinned key commitments + DLEQ proofs).
#pragma once

#include <cstdint>
#include <memory>

#include "net/transport.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "oprf/wire.h"

namespace cbl::tlog {
class Auditor;
class EpochPublisher;
}  // namespace cbl::tlog

namespace cbl::net {

enum class Method : std::uint8_t {
  kQuery = 1,
  kPrefixList = 2,
  kInfo = 3,
  // Transparency-log endpoints (src/tlog); served only when the node was
  // given an EpochPublisher, kBadRequest otherwise.
  kTlogCheckpoint = 4,   // bodyless -> Checkpoint
  kTlogDelta = 5,        // u64 from_epoch -> EpochDelta
  kTlogAuditPath = 6,    // u32 prefix -> AuditPath
  kTlogConsistency = 7,  // u64 old_size -> ConsistencyProofMsg
  kTlogBuckets = 8,      // bodyless -> full bucket map
};

enum class Status : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,
  kRateLimited = 2,
};

/// Trailing integrity checksum on every response frame (keyed BLAKE2b-32
/// over status byte + body).
inline constexpr std::size_t kFrameChecksumSize = 4;

/// Seals a response frame: status byte, body, integrity checksum. The
/// node uses this for every reply; tests and hostile-server fixtures use
/// it to craft frames that reach the body parsers.
Bytes encode_response_frame(Status status, ByteView body = {});

/// The optional body of a kRateLimited response: a u32 retry-after hint
/// in ms.
Bytes encode_retry_after(std::uint32_t hint_ms);

/// A validated request frame: a known method tag plus its body. Bodyless
/// methods (kPrefixList, kInfo) reject trailing bytes here, so a frame
/// either maps onto the protocol exactly or is malformed.
struct RequestFrame {
  Method method = Method::kQuery;
  ByteView body;  // aliases the input frame
};
// wire:untrusted fuzz=fuzz_net_frame
[[nodiscard]] std::optional<RequestFrame> parse_request_frame(ByteView frame);

/// A split response frame: a known status tag plus its body. Parsing
/// verifies and strips the integrity checksum; a frame that fails the
/// check (corruption, truncation) is malformed as a whole.
struct ResponseFrame {
  Status status = Status::kBadRequest;
  ByteView body;  // aliases the input frame
};
// wire:untrusted fuzz=fuzz_net_frame
[[nodiscard]] std::optional<ResponseFrame> parse_response_frame(ByteView frame);

/// Service metadata a first-time client synchronizes on (Section IV-B:
/// "a first-time user should synchronize on the value of lambda").
struct ServiceInfo {
  std::uint32_t lambda = 0;
  std::uint8_t oracle_kind = 0;  // 0 fast, 1 slow
  std::uint32_t argon2_memory_kib = 0;
  std::uint32_t argon2_time_cost = 0;
  std::uint64_t epoch = 0;
  std::uint64_t entry_count = 0;
};

Bytes encode_info(const ServiceInfo& info);
// wire:untrusted fuzz=fuzz_net_frame
[[nodiscard]] std::optional<ServiceInfo> decode_info(ByteView data);

/// Per-node serving policy.
struct NodeLimits {
  /// Retry-after hint attached to rate-limiter rejections, in ms
  /// (pipeline sheds carry their own hint). 0 = none.
  std::uint32_t retry_after_hint_ms = 0;
};

class QueryPipeline;

/// Binds an OprfServer to a transport endpoint. The destructor tears the
/// endpoint down again, so a destroyed node is unreachable (drops) — the
/// crash half of crash-restart — rather than a dangling handler.
///
/// Queries are served through a QueryPipeline (coalesced crypto, the
/// node's only load shedding): the one passed in, which several nodes
/// may share and which must outlive them, or else a default-options
/// pipeline the node owns. Beyond its metric counters the node keeps no
/// mutable state, so handle_frame may run on any number of threads.
class BlocklistServiceNode {
 public:
  /// With a publisher attached the node serves the kTlog* methods; a
  /// checkpoint request first runs publish_epoch (idempotent), so the
  /// served checkpoint always covers the server's current epoch. The
  /// publisher must outlive the node.
  BlocklistServiceNode(Transport& transport, std::string endpoint,
                       oprf::OprfServer& server, oprf::Oracle oracle,
                       NodeLimits limits = NodeLimits(),
                       QueryPipeline* pipeline = nullptr,
                       tlog::EpochPublisher* publisher = nullptr);
  ~BlocklistServiceNode();
  BlocklistServiceNode(const BlocklistServiceNode&) = delete;
  BlocklistServiceNode& operator=(const BlocklistServiceNode&) = delete;

  const std::string& endpoint() const { return endpoint_; }

  /// Serves one request frame; the handler registered on the endpoint.
  /// Public so a harness can register a wrapper that calls it.
  std::optional<Bytes> handle_frame(ByteView frame);

 private:
  /// Serves one kQuery request with per-stage timing; returns the
  /// sealed response frame.
  Bytes handle_query(ByteView body, std::uint64_t parse_ns);
  /// Serves one kTlog* request; returns the sealed response frame.
  Bytes handle_tlog(Method method, ByteView body);
  /// Counts `status` and seals it with `body` into a response frame.
  Bytes respond(Status status, ByteView body = {});
  obs::Counter& method_counter(Method method);
  obs::Counter& status_counter(Status status);

  Transport* transport_;
  std::string endpoint_;
  oprf::OprfServer& server_;
  oprf::Oracle oracle_;
  NodeLimits limits_;
  std::unique_ptr<QueryPipeline> owned_pipeline_;  // when none was passed
  QueryPipeline* pipeline_;  // the serving path: shared or owned_pipeline_
  tlog::EpochPublisher* publisher_;  // optional transparency log; not owned
  // Per-method / per-status request accounting, resolved once.
  obs::Counter* requests_query_;
  obs::Counter* requests_prefix_list_;
  obs::Counter* requests_info_;
  obs::Counter* requests_tlog_;
  obs::Counter* requests_unknown_;
  obs::Counter* responses_ok_;
  obs::Counter* responses_bad_request_;
  obs::Counter* responses_rate_limited_;
  // Per-stage CPU spend (real steady-clock ns, not virtual time).
  obs::Counter* stage_parse_ns_;
  obs::Counter* stage_crypto_ns_;
  obs::Counter* stage_seal_ns_;
};

/// Client side: discovers the service parameters over the wire, then
/// issues private queries, one channel call each. A lost call surfaces
/// as kUnreachable; retrying is ResilientClient's job. Takes any
/// Channel, so the same client runs over a bare Transport or a
/// chaos-wrapped one.
class RemoteBlocklistClient {
 public:
  /// Fetches ServiceInfo from the node and constructs a matching local
  /// OPRF client (same oracle, same lambda). Throws ProtocolError if the
  /// service is unreachable or speaks garbage.
  RemoteBlocklistClient(Channel& channel, std::string endpoint, Rng& rng);

  struct QueryOutcome {
    enum class Kind { kOk, kUnreachable, kMalformed, kRateLimited };
    Kind kind = Kind::kUnreachable;
    bool listed = false;
    bool resolved_locally = false;
    double rtt_ms = 0.0;
    /// Server backoff hint carried by kRateLimited responses; 0 if none.
    std::uint32_t retry_after_ms = 0;
  };

  QueryOutcome query(std::string_view address);

  /// Downloads and installs the prefix list (enables the local fast
  /// path). Returns false if the transfer failed.
  bool sync_prefix_list();

  /// Outcome of one verified_sync pass, with the failure classified for
  /// the resilience layer: kTransport covers undelivered calls and
  /// frames that failed the integrity checksum (channel damage — retry,
  /// never distrust) plus non-kOk statuses (service not publishing, or
  /// a delta hop it does not serve); kAudit covers everything a
  /// checksum-VALID response got wrong — undecodable bodies, bad
  /// signatures, consistency/equivocation failures, root mismatches.
  /// kAudit is evidence about the provider, not the channel: the
  /// auditor has latched distrust (durably, when it has a store).
  struct SyncReport {
    enum class Failure : std::uint8_t { kNone, kTransport, kAudit };
    bool ok = false;
    Failure failure = Failure::kNone;
    std::uint64_t epoch = 0;       // mirror epoch after the sync
    unsigned deltas_applied = 0;
    std::size_t delta_bytes = 0;   // wire bytes spent on deltas
    std::size_t full_bytes = 0;    // wire bytes spent on full downloads
  };

  /// Brings `auditor`'s bucket mirror up to the provider's latest signed
  /// checkpoint: fetches the checkpoint (with a consistency proof when
  /// the log grew), adopts a full bucket download on first contact,
  /// folds signed one-step deltas into the mirror up to the checkpoint,
  /// and finally binds the mirror root to the checkpoint with an audit
  /// path. Every step goes through the auditor; nothing is applied
  /// unverified. A distrusted auditor is refused up front (failure
  /// kAudit).
  SyncReport verified_sync(tlog::Auditor& auditor);

  const ServiceInfo& info() const { return info_; }
  void set_api_key(std::string key) { client_->set_api_key(std::move(key)); }

  /// Prefix-list state, exposed so a resilience layer can fall back to
  /// prefix-only answers when the service is unreachable.
  bool has_prefix_list() const { return client_->has_prefix_list(); }
  bool may_be_listed(std::string_view address) const {
    return client_->may_be_listed(address);
  }

  const std::string& endpoint() const { return endpoint_; }

 private:
  QueryOutcome query_uncounted(std::string_view address);
  /// One tlog method call; returns the response BODY on kOk, nullopt on
  /// transport failure or non-kOk status (both kTransport to the sync).
  std::optional<Bytes> call_tlog(Method method, ByteView body);

  Channel& channel_;
  std::string endpoint_;
  ServiceInfo info_;
  std::optional<oprf::OprfClient> client_;
  // Query outcomes by kind (cbl_net_client_outcomes_total), so
  // dashboards can tell rate-limited from unreachable from malformed.
  obs::Counter* outcomes_ok_;
  obs::Counter* outcomes_unreachable_;
  obs::Counter* outcomes_malformed_;
  obs::Counter* outcomes_rate_limited_;
  // Verified-sync accounting (cbl_tlog_sync_*), resolved once.
  obs::Counter* sync_ok_;
  obs::Counter* sync_transport_;
  obs::Counter* sync_audit_;
  obs::Counter* sync_bytes_delta_;
  obs::Counter* sync_bytes_full_;
};

}  // namespace cbl::net
