// The transparency-log lifecycle end to end: a provider publishes
// signed checkpoints and deltas over its epoch rotations, a client
// mirrors the bucket set by folding verified deltas (never
// re-downloading full buckets), and a forged split-view checkpoint is
// caught as cryptographic proof of equivocation — after which the
// resilient client refuses the provider for good and serves what it can
// from the degradation ladder. Ends with the cbl_tlog_* metric slice.
//
//   ./examples/transparency_audit
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "tlog/tlog.h"

using cbl::Bytes;
using cbl::ByteView;
using cbl::ChaChaRng;
namespace blocklist = cbl::blocklist;
namespace net = cbl::net;
namespace obs = cbl::obs;
namespace oprf = cbl::oprf;
namespace tlog = cbl::tlog;

int main() {
  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("audit-demo-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("audit-demo-server");
  ChaChaRng key_rng = ChaChaRng::from_string_seed("audit-demo-key");
  ChaChaRng pub_rng = ChaChaRng::from_string_seed("audit-demo-pub");
  ChaChaRng client_rng = ChaChaRng::from_string_seed("audit-demo-client");
  ChaChaRng transport_rng = ChaChaRng::from_string_seed("audit-demo-trans");

  // --- provider: blocklist service + transparency publisher --------------
  const auto corpus = blocklist::generate_corpus(64, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 6u, server_rng);
  server.setup(std::span<const std::string>(corpus).first(40));
  const auto key = cbl::nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);

  net::Transport transport(net::TransportConfig{}, transport_rng);
  auto node = std::make_optional<net::BlocklistServiceNode>(
      transport, "scamdb", server, oprf::Oracle::fast(), net::NodeLimits(),
      nullptr, &publisher);

  std::printf("=== epoch rotations with verified delta sync ===\n");
  net::RemoteBlocklistClient client(transport, "scamdb", client_rng);
  tlog::Auditor auditor(key.pk, "scamdb");

  const auto show = [&](const char* what,
                        const net::RemoteBlocklistClient::SyncReport& r) {
    std::printf("%-26s ok=%d epoch=%llu deltas=%u delta_bytes=%zu "
                "full_bytes=%zu\n",
                what, r.ok ? 1 : 0, static_cast<unsigned long long>(r.epoch),
                r.deltas_applied, r.delta_bytes, r.full_bytes);
  };

  // First contact bootstraps from a full verified download; every epoch
  // rotation after that rides one signed delta.
  show("first sync (full)", client.verified_sync(auditor));
  std::size_t next = 40;
  for (int rotation = 0; rotation < 3; ++rotation) {
    server.add_entries(std::span<const std::string>(corpus).subspan(next, 4));
    next += 4;
    server.remove_entries(
        std::span<const std::string>(corpus).subspan(rotation * 2, 2));
    show("rotation sync (delta)", client.verified_sync(auditor));
  }
  std::printf("mirror: epoch=%llu buckets=%zu trusted=%d "
              "(bit-identical to the server's snapshot: %s)\n",
              static_cast<unsigned long long>(auditor.mirror_epoch()),
              auditor.buckets().size(), auditor.trusted() ? 1 : 0,
              auditor.buckets() == server.bucket_snapshot() ? "yes" : "NO");

  // A resilient client pins the provider's signing key now, while the
  // provider is still honest — equivocation is only provable against a
  // previously accepted view, so the mirror must exist first.
  net::ResilientClient resilient(transport, {"scamdb"}, client_rng);
  resilient.pin_tlog_key("scamdb", key.pk);
  (void)resilient.sync();
  const auto honest_answer = resilient.query(corpus[0]);
  std::printf("resilient query while honest: freshness=%s\n",
              net::to_string(honest_answer.freshness));

  // --- the provider equivocates -------------------------------------------
  // A second validly signed checkpoint for the SAME tree size with a
  // different root is a split view: whatever this provider shows one
  // client, it can no longer show everyone the same log.
  std::printf("\n=== split view: forged checkpoint at the same size ===\n");
  const auto honest = publisher.latest_checkpoint();
  auto forged_root = honest.root;
  forged_root[3] ^= 0x40;
  const auto forged = tlog::sign_checkpoint(key, honest.tree_size,
                                            forged_root, honest.epoch,
                                            pub_rng);
  node.reset();
  transport.register_endpoint(
      "scamdb", [&](ByteView frame) -> std::optional<Bytes> {
        const auto request = net::parse_request_frame(frame);
        if (request && request->method == net::Method::kInfo) {
          net::ServiceInfo info;
          info.lambda = server.lambda();
          info.entry_count = server.entry_count();
          return net::encode_response_frame(net::Status::kOk,
                                            net::encode_info(info));
        }
        if (request && request->method == net::Method::kTlogSync) {
          return net::encode_response_frame(
              net::Status::kOk, tlog::encode_sync_bundle({forged.to_bytes()}));
        }
        return net::encode_response_frame(net::Status::kBadRequest);
      });

  const auto caught = client.verified_sync(auditor);
  std::printf("sync vs equivocator: ok=%d failure=%s auditor_trusted=%d\n",
              caught.ok ? 1 : 0,
              caught.failure ==
                      net::RemoteBlocklistClient::SyncReport::Failure::kAudit
                  ? "audit"
                  : "transport",
              auditor.trusted() ? 1 : 0);

  // --- the resilience layer reacts ----------------------------------------
  // The pinned resilient client sees the same split view against the
  // mirror it already accepted and latches permanent distrust: the
  // endpoint gets no further traffic and answers fall down the
  // degradation ladder instead of trusting either fork.
  std::printf("\n=== resilient client: permanent distrust ===\n");
  (void)resilient.sync();
  std::printf("after sync(): distrusted=%d\n",
              resilient.distrusted("scamdb") ? 1 : 0);
  const auto out = resilient.query(corpus[0]);
  std::printf("query(%s): freshness=%s (degraded, never fresh again)\n",
              corpus[0].substr(0, 12).c_str(),
              net::to_string(out.freshness));

  // --- the audit trail in metrics -----------------------------------------
  std::printf("\n=== cbl_tlog_* metric slice ===\n");
  const auto samples = obs::MetricsRegistry::global().snapshot();
  std::string slice;
  for (const auto& line : {obs::to_prometheus(samples)}) {
    std::size_t pos = 0;
    while (pos < line.size()) {
      const std::size_t end = line.find('\n', pos);
      const std::string row = line.substr(pos, end - pos);
      if (row.find("cbl_tlog_") != std::string::npos) slice += row + "\n";
      if (end == std::string::npos) break;
      pos = end + 1;
    }
  }
  std::printf("%s", slice.c_str());
  return 0;
}
