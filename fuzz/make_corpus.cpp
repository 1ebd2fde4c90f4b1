// Regenerates the seed corpora under fuzz/corpora/ — one directory per
// harness, each file a structurally interesting input (valid messages,
// truncations, bad tags). Deterministic: a fixed DRBG seed, so rerunning
// the tool reproduces the committed corpus byte for byte.
//
// Usage: make_corpus <output-root>   (typically fuzz/corpora)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "blocklist/address.h"
#include "blocklist/io.h"
#include "common/rng.h"
#include "ec/codec.h"
#include "ec/ristretto.h"
#include "ec/scalar.h"
#include "fuzz/tlog_delta_base.h"
#include "net/service_node.h"
#include "nizk/signature.h"
#include "oprf/wire.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "tlog/persist.h"
#include "tlog/tlog.h"
#include "voting/wire.h"
#include "vrf/vrf.h"

using namespace cbl;

namespace {

std::filesystem::path g_root;

void write(const std::string& surface, const std::string& name,
           ByteView bytes) {
  const auto dir = g_root / surface;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void write(const std::string& surface, const std::string& name,
           std::string_view text) {
  write(surface, name, ByteView(reinterpret_cast<const std::uint8_t*>(
                                    text.data()),
                                text.size()));
}

Bytes with_selector(std::uint8_t selector, ByteView body) {
  Bytes out{selector};
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

ec::RistrettoPoint rand_point(Rng& rng) {
  std::array<std::uint8_t, 64> wide;
  rng.fill(wide.data(), wide.size());
  return ec::RistrettoPoint::from_uniform_bytes(wide);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <output-root>\n");
    return 2;
  }
  g_root = argv[1];
  ChaChaRng rng = ChaChaRng::from_string_seed("cbl-corpus");

  // ----------------------------------------------------------- voting_wire
  voting::Round1Submission r1;
  r1.deposit_note = commit::Commitment(rand_point(rng));
  r1.deposit_proof.commitment = rand_point(rng);
  r1.deposit_proof.response = ec::Scalar::random(rng);
  r1.vrf_pk = rand_point(rng);
  r1.comm_secret = rand_point(rng);
  r1.c1 = rand_point(rng);
  r1.c2 = rand_point(rng);
  r1.comm_vote = rand_point(rng);
  r1.proof_a.sigma0 = rand_point(rng);
  r1.proof_a.sigma1 = rand_point(rng);
  r1.proof_a.sigma2 = rand_point(rng);
  r1.proof_a.gamma0 = rand_point(rng);
  r1.proof_a.gamma1 = rand_point(rng);
  r1.proof_a.a = ec::Scalar::random(rng);
  r1.proof_a.b = ec::Scalar::random(rng);
  r1.proof_a.omega = ec::Scalar::random(rng);
  r1.vote_proof.a0 = rand_point(rng);
  r1.vote_proof.a1 = rand_point(rng);
  r1.vote_proof.c0 = ec::Scalar::random(rng);
  r1.vote_proof.c1 = ec::Scalar::random(rng);
  r1.vote_proof.z0 = ec::Scalar::random(rng);
  r1.vote_proof.z1 = ec::Scalar::random(rng);
  r1.weight = 7;
  const Bytes round1 = voting::serialize(r1);

  voting::VrfReveal reveal;
  reveal.proof.gamma = rand_point(rng);
  reveal.proof.dleq.commitment1 = rand_point(rng);
  reveal.proof.dleq.commitment2 = rand_point(rng);
  reveal.proof.dleq.response = ec::Scalar::random(rng);
  const Bytes reveal_wire = voting::serialize(reveal);

  voting::Round2Submission r2;
  r2.psi = rand_point(rng);
  r2.proof_b.sigma0 = rand_point(rng);
  r2.proof_b.sigma1 = rand_point(rng);
  r2.proof_b.sigma2 = rand_point(rng);
  r2.proof_b.gamma0 = rand_point(rng);
  r2.proof_b.gamma1 = rand_point(rng);
  r2.proof_b.a = ec::Scalar::random(rng);
  r2.proof_b.b = ec::Scalar::random(rng);
  r2.proof_b.omega_x = ec::Scalar::random(rng);
  r2.proof_b.omega_v = ec::Scalar::random(rng);
  const Bytes round2 = voting::serialize(r2);

  write("fuzz_voting_wire", "round1", with_selector(0, round1));
  write("fuzz_voting_wire", "round1-truncated",
        ByteView(with_selector(0, round1)).first(round1.size() / 2));
  write("fuzz_voting_wire", "reveal", with_selector(1, reveal_wire));
  write("fuzz_voting_wire", "round2", with_selector(2, round2));
  write("fuzz_voting_wire", "empty", with_selector(0, ByteView()));

  // ------------------------------------------------------------- oprf_wire
  oprf::QueryRequest request;
  request.prefix = 0x00003ad7;
  request.masked_query = rand_point(rng).encode();
  request.cached_epoch = 3;
  const Bytes req_plain = oprf::serialize(request);
  request.api_key = "corpus-api-key";
  request.want_evaluation_proof = true;
  const Bytes req_keyed = oprf::serialize(request);

  oprf::QueryResponse response;
  response.evaluated = rand_point(rng).encode();
  response.epoch = 3;
  for (int i = 0; i < 3; ++i) response.bucket.push_back(rand_point(rng).encode());
  const Bytes resp_plain = oprf::serialize(response);
  for (int i = 0; i < 3; ++i) response.metadata.push_back(rng.bytes(9));
  nizk::DleqProof eval_proof;
  eval_proof.commitment1 = rand_point(rng);
  eval_proof.commitment2 = rand_point(rng);
  eval_proof.response = ec::Scalar::random(rng);
  response.evaluation_proof = eval_proof;
  const Bytes resp_full = oprf::serialize(response);

  const Bytes prefixes =
      oprf::serialize_prefix_list({1, 5, 9, 200, 70000});
  const Bytes prefixes_empty = oprf::serialize_prefix_list({});

  write("fuzz_oprf_wire", "request", with_selector(0, req_plain));
  write("fuzz_oprf_wire", "request-keyed", with_selector(0, req_keyed));
  write("fuzz_oprf_wire", "response", with_selector(1, resp_plain));
  write("fuzz_oprf_wire", "response-full", with_selector(1, resp_full));
  write("fuzz_oprf_wire", "prefixes", with_selector(2, prefixes));
  write("fuzz_oprf_wire", "prefixes-empty", with_selector(2, prefixes_empty));

  // ------------------------------------------------------------------ nizk
  nizk::SchnorrProof schnorr;
  schnorr.commitment = rand_point(rng);
  schnorr.response = ec::Scalar::random(rng);
  write("fuzz_nizk", "schnorr", with_selector(0, schnorr.to_bytes()));
  nizk::RepresentationProof repr;
  repr.commitment = rand_point(rng);
  repr.z1 = ec::Scalar::random(rng);
  repr.z2 = ec::Scalar::random(rng);
  write("fuzz_nizk", "representation", with_selector(1, repr.to_bytes()));
  write("fuzz_nizk", "dleq", with_selector(2, eval_proof.to_bytes()));
  write("fuzz_nizk", "proof-a", with_selector(3, r1.proof_a.to_bytes()));
  write("fuzz_nizk", "proof-b", with_selector(4, r2.proof_b.to_bytes()));
  write("fuzz_nizk", "vote-or", with_selector(5, r1.vote_proof.to_bytes()));
  write("fuzz_nizk", "vrf-proof", with_selector(6, reveal.proof.to_bytes()));
  nizk::Signature sig;
  sig.nonce_commitment = rand_point(rng);
  sig.response = ec::Scalar::random(rng);
  write("fuzz_nizk", "signature", with_selector(0x86, sig.to_bytes()));
  write("fuzz_nizk", "dleq-truncated",
        ByteView(with_selector(2, eval_proof.to_bytes())).first(40));

  // ------------------------------------------------------------- net_frame
  write("fuzz_net_frame", "query",
        with_selector(static_cast<std::uint8_t>(net::Method::kQuery),
                      req_plain));
  write("fuzz_net_frame", "prefix-list",
        Bytes{static_cast<std::uint8_t>(net::Method::kPrefixList)});
  write("fuzz_net_frame", "info",
        Bytes{static_cast<std::uint8_t>(net::Method::kInfo)});
  write("fuzz_net_frame", "info-trailing",
        with_selector(static_cast<std::uint8_t>(net::Method::kInfo),
                      Bytes{0xde, 0xad}));
  net::ServiceInfo info;
  info.lambda = 16;
  info.entry_count = 1000;
  write("fuzz_net_frame", "response-info",
        net::encode_response_frame(net::Status::kOk, net::encode_info(info)));
  write("fuzz_net_frame", "response-prefixes",
        net::encode_response_frame(net::Status::kOk, prefixes));
  write("fuzz_net_frame", "response-rate-limited",
        net::encode_response_frame(net::Status::kRateLimited));
  // A sealed frame with one flipped bit: must fail the checksum gate.
  Bytes corrupted = net::encode_response_frame(net::Status::kOk, prefixes);
  corrupted[corrupted.size() / 2] ^= 0x01;
  write("fuzz_net_frame", "response-corrupted", corrupted);
  write("fuzz_net_frame", "bad-method", Bytes{0x09, 0x00});
  write("fuzz_net_frame", "empty", Bytes{});

  // ---------------------------------------------------------- blocklist_io
  std::array<std::uint8_t, 20> payload{};
  rng.fill(payload.data(), payload.size());
  blocklist::Entry entry;
  entry.address = blocklist::make_bitcoin_address(payload);
  entry.chain = blocklist::Chain::kBitcoin;
  entry.first_reported = 1600000000;
  entry.report_count = 4;
  write("fuzz_blocklist_io", "bitcoin-line", blocklist::format_entry(entry));
  entry.address = blocklist::make_ethereum_address(payload);
  entry.chain = blocklist::Chain::kEthereum;
  write("fuzz_blocklist_io", "ethereum-line", blocklist::format_entry(entry));
  entry.address = blocklist::make_segwit_address(payload);
  entry.chain = blocklist::Chain::kBitcoinSegwit;
  const std::string segwit_line = blocklist::format_entry(entry);
  write("fuzz_blocklist_io", "segwit-line", segwit_line);
  write("fuzz_blocklist_io", "comment", std::string_view("# a comment\n\n"));
  write("fuzz_blocklist_io", "malformed",
        std::string_view("not\ta\tvalid\trow\n"));
  write("fuzz_blocklist_io", "mixed",
        "# feed dump\n" + segwit_line + "\nbroken line\n");

  // --------------------------------------------------------------- address
  write("fuzz_address", "bitcoin", blocklist::make_bitcoin_address(payload));
  write("fuzz_address", "ethereum", blocklist::make_ethereum_address(payload));
  write("fuzz_address", "ripple", blocklist::make_ripple_address(payload));
  write("fuzz_address", "segwit", blocklist::make_segwit_address(payload));
  std::string damaged = blocklist::make_bitcoin_address(payload);
  damaged.back() = damaged.back() == '1' ? '2' : '1';
  write("fuzz_address", "bad-checksum", damaged);
  write("fuzz_address", "not-an-address", std::string_view("hello world 0x"));

  // -------------------------------------------------------- ristretto_diff
  write("fuzz_ristretto_diff", "base-point",
        ByteView(ec::RistrettoPoint::base().encode()));
  write("fuzz_ristretto_diff", "random-point",
        ByteView(rand_point(rng).encode()));
  Bytes invalid(32, 0xff);
  write("fuzz_ristretto_diff", "invalid-point", invalid);
  write("fuzz_ristretto_diff", "scalar",
        ByteView(ec::Scalar::random(rng).to_bytes()));
  // Ladder seeds (point || scalar): the all-8s nibble pattern, whose
  // radix-16 carry ripples through every digit, and l - 1. No DRBG draws,
  // so the sections after this one keep their bytes.
  const auto ladder_seed = [](const ec::RistrettoPoint& p,
                              const ec::Scalar& s) {
    const auto point = p.encode();
    const auto scalar = s.to_bytes();
    Bytes out(point.begin(), point.end());
    out.insert(out.end(), scalar.begin(), scalar.end());
    return out;
  };
  std::array<std::uint8_t, 32> nibble8;
  nibble8.fill(0x88);
  nibble8[31] = 0x08;
  write("fuzz_ristretto_diff", "ladder-nibble8",
        ladder_seed(ec::RistrettoPoint::base(),
                    ec::Scalar::from_bytes_mod_order(nibble8)));
  write("fuzz_ristretto_diff", "ladder-l-minus-1",
        ladder_seed(ec::RistrettoPoint::hash_to_group(to_bytes("ladder"),
                                                      "cbl-corpus"),
                    ec::Scalar::zero() - ec::Scalar::one()));
  // Inversion seeds (point || scalar || x) for x = 0, 1, l - 1 and p - 1,
  // also DRBG-free.
  const auto inversion_seed = [&](const std::array<std::uint8_t, 32>& x) {
    Bytes out = ladder_seed(ec::RistrettoPoint::base(), ec::Scalar::one());
    out.insert(out.end(), x.begin(), x.end());
    return out;
  };
  std::array<std::uint8_t, 32> p_minus_1;
  p_minus_1.fill(0xff);
  p_minus_1[0] = 0xec;
  p_minus_1[31] = 0x7f;
  write("fuzz_ristretto_diff", "invert-zero",
        inversion_seed(ec::Scalar::zero().to_bytes()));
  write("fuzz_ristretto_diff", "invert-one",
        inversion_seed(ec::Scalar::one().to_bytes()));
  write("fuzz_ristretto_diff", "invert-l-minus-1",
        inversion_seed((ec::Scalar::zero() - ec::Scalar::one()).to_bytes()));
  write("fuzz_ristretto_diff", "invert-p-minus-1", inversion_seed(p_minus_1));
  // Square-root seeds (point || scalar || u || v), DRBG-free: u/v = 2, a
  // non-square mod p, and v = 0.
  const auto sqrt_seed = [&](std::uint8_t u, std::uint8_t v) {
    std::array<std::uint8_t, 32> ub{};
    ub[0] = u;
    Bytes out = inversion_seed(ub);
    out.resize(out.size() + 32, 0);
    out[96] = v;
    return out;
  };
  write("fuzz_ristretto_diff", "sqrt-nonsquare", sqrt_seed(2, 1));
  write("fuzz_ristretto_diff", "sqrt-v-zero", sqrt_seed(1, 0));
  write("fuzz_ristretto_diff", "hex", std::string_view("deadbeef"));
  write("fuzz_ristretto_diff", "hex-upper", std::string_view("DEADBEEF"));
  write("fuzz_ristretto_diff", "hex-odd", std::string_view("abc"));

  // ------------------------------------------------------- tlog_checkpoint
  {
    // Own DRBG so this section never shifts the draws (and bytes) of the
    // sections around it.
    ChaChaRng tlog_rng = ChaChaRng::from_string_seed("cbl-corpus-tlog");
    const nizk::SigningKey tlog_key = nizk::SigningKey::generate(tlog_rng);
    // A real publisher pass over a small server gives structurally valid
    // checkpoints, deltas, proofs, and bucket maps in one sweep.
    oprf::OprfServer server(oprf::Oracle::fast(), 8, tlog_rng);
    std::vector<std::string> entries;
    for (int i = 0; i < 24; ++i) entries.push_back("seed-" + std::to_string(i));
    server.setup(entries);
    tlog::EpochPublisher publisher(tlog_key, tlog_rng);
    publisher.publish_epoch(server);
    const std::uint64_t first_epoch = server.epoch();
    server.add_entries(std::vector<std::string>{"seed-extra-1", "seed-extra-2"});
    server.remove_entries(std::vector<std::string>{"seed-3"});
    publisher.publish_epoch(server);
    // What a first-contact wallet and a wallet one epoch behind receive.
    const tlog::SyncBundle first_contact = *publisher.sync(server, {});
    const tlog::SyncBundle one_behind =
        *publisher.sync(server, {1, first_epoch});

    const tlog::Checkpoint cp = publisher.latest_checkpoint();
    write("fuzz_tlog_checkpoint", "checkpoint", cp.to_bytes());
    Bytes cp_bad_version = cp.to_bytes();
    cp_bad_version[0] = 0x7f;
    write("fuzz_tlog_checkpoint", "checkpoint-bad-version", cp_bad_version);
    write("fuzz_tlog_checkpoint", "checkpoint-truncated",
          ByteView(cp.to_bytes()).first(tlog::Checkpoint::kWireSize / 2));

    write("fuzz_tlog_checkpoint", "audit-path", first_contact.audit_path);
    const auto path = tlog::parse_audit_path(first_contact.audit_path);
    write("fuzz_tlog_checkpoint", "inclusion",
          tlog::encode_inclusion_proof(path->log_proof));
    write("fuzz_tlog_checkpoint", "consistency", one_behind.consistency);
    // Hostile step count: claims 65 steps (over the depth cap).
    write("fuzz_tlog_checkpoint", "inclusion-overcount",
          Bytes{0, 0, 0, 0, 0, 0, 0, 0,  1, 0, 0, 0, 0, 0, 0, 0,
                65, 0, 0, 0});
    write("fuzz_tlog_checkpoint", "empty", Bytes{});
    write("fuzz_tlog_checkpoint", "bundle-first-contact",
          tlog::encode_sync_bundle(first_contact));

    // ------------------------------------------------------------ tlog_delta
    const auto delta = tlog::EpochDelta::from_bytes(one_behind.deltas[0]);
    write("fuzz_tlog_delta", "delta", delta->to_bytes());
    Bytes delta_flipped = delta->to_bytes();
    delta_flipped[delta_flipped.size() / 2] ^= 0x20;
    write("fuzz_tlog_delta", "delta-flipped", delta_flipped);
    write("fuzz_tlog_delta", "delta-truncated",
          ByteView(delta->to_bytes()).first(delta->to_bytes().size() / 3));
    write("fuzz_tlog_delta", "bucket-map", first_contact.snapshot);
    write("fuzz_tlog_delta", "bucket-map-empty",
          tlog::encode_bucket_map(tlog::BucketMap{}));
    // Unsorted prefix order: two buckets with descending prefixes.
    {
      ec::WireWriter w;
      const auto entry = rand_point(tlog_rng).encode();
      w.u32(2);
      w.u32(9).u32(1).raw(ByteView(entry.data(), entry.size()));
      w.u32(7).u32(1).raw(ByteView(entry.data(), entry.size()));
      write("fuzz_tlog_delta", "bucket-map-unsorted", w.take());
    }
    write("fuzz_tlog_delta", "empty", Bytes{});

    // Two deltas that fold onto the harness's own mirror and change its
    // prefix set, so the kept tree takes the rebuild path: one removes
    // every entry of bucket 9, one adds the new bucket 8. Own DRBG, so
    // the seeds above keep their bytes.
    ChaChaRng fold_rng = ChaChaRng::from_string_seed("cbl-corpus-tlog-fold");
    const nizk::SigningKey fold_key = nizk::SigningKey::generate(fold_rng);
    const tlog::BucketMap mirror = fuzz::tlog_delta_base_mirror();
    tlog::EpochDelta empties;
    empties.from_epoch = 1;
    empties.to_epoch = 2;
    empties.prefixes.push_back({9, {}, mirror.at(9)});
    write("fuzz_tlog_delta", "delta-empties-bucket",
          tlog::sign_delta(fold_key, empties, fold_rng).to_bytes());
    tlog::EpochDelta creates;
    creates.from_epoch = 1;
    creates.to_epoch = 2;
    tlog::PrefixDelta created{8, {}, {}};
    for (int i = 0; i < 2; ++i) {
      created.added.push_back(rand_point(fold_rng).encode());
    }
    std::sort(created.added.begin(), created.added.end());
    creates.prefixes.push_back(created);
    write("fuzz_tlog_delta", "delta-creates-bucket",
          tlog::sign_delta(fold_key, creates, fold_rng).to_bytes());

    // Two hops: one more publication past `one_behind`'s checkpoint. Last,
    // because publishing draws from tlog_rng.
    server.add_entries(std::vector<std::string>{"seed-extra-3"});
    write("fuzz_tlog_checkpoint", "bundle-two-deltas",
          tlog::encode_sync_bundle(*publisher.sync(server, {1, first_epoch})));
  }

  // -------------------------------------------- store + auditor persistence
  {
    // Own DRBG so this section never shifts the draws of its neighbors.
    ChaChaRng store_rng = ChaChaRng::from_string_seed("cbl-corpus-store");

    // --------------------------------------------------------- store_journal
    const Bytes frame_a =
        store::encode_journal_record(to_bytes("journal-payload-a"));
    const Bytes frame_b = store::encode_journal_record(store_rng.bytes(48));
    write("fuzz_store_journal", "record", frame_a);
    write("fuzz_store_journal", "record-truncated",
          ByteView(frame_a).first(frame_a.size() / 2));
    Bytes journal_file = to_bytes(store::kJournalMagic);
    journal_file.insert(journal_file.end(), frame_a.begin(), frame_a.end());
    journal_file.insert(journal_file.end(), frame_b.begin(), frame_b.end());
    write("fuzz_store_journal", "file", journal_file);
    Bytes journal_torn = journal_file;
    journal_torn.resize(journal_torn.size() - frame_b.size() / 2);
    write("fuzz_store_journal", "file-torn-tail", journal_torn);
    Bytes journal_flipped = journal_file;
    journal_flipped.back() ^= 0x10;  // last payload byte: checksum must fail
    write("fuzz_store_journal", "file-bit-rot", journal_flipped);
    Bytes journal_bad_magic = journal_file;
    journal_bad_magic[0] ^= 0x01;
    write("fuzz_store_journal", "file-bad-magic", journal_bad_magic);
    write("fuzz_store_journal", "header-only",
          to_bytes(store::kJournalMagic));
    write("fuzz_store_journal", "empty", Bytes{});

    // -------------------------------------------------------- store_snapshot
    const Bytes snap = store::encode_snapshot(to_bytes("snapshot-payload"));
    write("fuzz_store_snapshot", "snapshot", snap);
    write("fuzz_store_snapshot", "snapshot-empty-payload",
          store::encode_snapshot(ByteView()));
    write("fuzz_store_snapshot", "snapshot-truncated",
          ByteView(snap).first(snap.size() - 3));
    Bytes snap_flipped = snap;
    snap_flipped[snap_flipped.size() / 2] ^= 0x04;
    write("fuzz_store_snapshot", "snapshot-bit-rot", snap_flipped);
    Bytes snap_bad_version = snap;
    snap_bad_version[store::kSnapshotMagic.size()] = 0x7f;
    write("fuzz_store_snapshot", "snapshot-bad-version", snap_bad_version);
    write("fuzz_store_snapshot", "empty", Bytes{});

    // ---------------------------------------------------------- tlog_persist
    // A real publisher pass gives signed checkpoints and a delta, so the
    // seeds exercise the full nested decoders, not just the framing.
    const nizk::SigningKey persist_key = nizk::SigningKey::generate(store_rng);
    oprf::OprfServer persist_server(oprf::Oracle::fast(), 8, store_rng);
    std::vector<std::string> persist_entries;
    for (int i = 0; i < 12; ++i) {
      persist_entries.push_back("persist-" + std::to_string(i));
    }
    persist_server.setup(persist_entries);
    tlog::EpochPublisher persist_pub(persist_key, store_rng);
    const tlog::Checkpoint cp1 = persist_pub.publish_epoch(persist_server);
    const std::uint64_t persist_first_epoch = persist_server.epoch();
    persist_server.add_entries(
        std::vector<std::string>{"persist-extra-1", "persist-extra-2"});
    const tlog::Checkpoint cp2 = persist_pub.publish_epoch(persist_server);

    tlog::EquivocationEvidence evidence;
    evidence.first = cp1;
    evidence.second = cp2;
    write("fuzz_tlog_persist", "evidence", evidence.to_bytes());
    write("fuzz_tlog_persist", "evidence-truncated",
          ByteView(evidence.to_bytes()).first(tlog::Checkpoint::kWireSize));

    tlog::AuditorSnapshot auditor_snap;
    auditor_snap.latest = cp2;
    auditor_snap.seen = {cp1, cp2};
    auditor_snap.has_mirror = true;
    auditor_snap.mirror_epoch = persist_server.epoch();
    const tlog::SyncBundle persist_bundle =
        *persist_pub.sync(persist_server, {1, persist_first_epoch});
    auditor_snap.buckets = *tlog::parse_bucket_map(
        persist_pub.sync(persist_server, {})->snapshot);
    write("fuzz_tlog_persist", "auditor-trusted", auditor_snap.to_bytes());
    tlog::AuditorSnapshot distrusted_snap;
    distrusted_snap.trusted = false;
    distrusted_snap.distrust_reason = 4;
    distrusted_snap.evidence = evidence;
    write("fuzz_tlog_persist", "auditor-distrusted",
          distrusted_snap.to_bytes());
    Bytes snap_rot = auditor_snap.to_bytes();
    snap_rot[snap_rot.size() / 3] ^= 0x40;
    write("fuzz_tlog_persist", "auditor-bit-rot", snap_rot);

    tlog::AuditorRecord rec_cp;
    rec_cp.kind = tlog::AuditorRecord::Kind::kCheckpoint;
    rec_cp.checkpoint = cp2;
    write("fuzz_tlog_persist", "record-checkpoint", rec_cp.to_bytes());
    tlog::AuditorRecord rec_delta;
    rec_delta.kind = tlog::AuditorRecord::Kind::kDelta;
    rec_delta.delta_bytes = persist_bundle.deltas[0];
    write("fuzz_tlog_persist", "record-delta", rec_delta.to_bytes());
    tlog::AuditorRecord rec_distrust;
    rec_distrust.kind = tlog::AuditorRecord::Kind::kDistrust;
    rec_distrust.distrust_reason = 4;
    rec_distrust.evidence = evidence;
    write("fuzz_tlog_persist", "record-distrust", rec_distrust.to_bytes());
    write("fuzz_tlog_persist", "record-truncated",
          ByteView(rec_cp.to_bytes()).first(10));
    write("fuzz_tlog_persist", "bad-kind", Bytes{0x09, 0x00});
    write("fuzz_tlog_persist", "empty", Bytes{});
  }

  // ------------------------------------------------------------- roundtrip
  // Inputs are DRBG seeds for the structure builder; content is arbitrary.
  write("fuzz_roundtrip", "seed-empty", Bytes{});
  write("fuzz_roundtrip", "seed-a", std::string_view("roundtrip-seed-a"));
  write("fuzz_roundtrip", "seed-b", rng.bytes(32));

  std::fprintf(stderr, "make_corpus: wrote corpora under %s\n",
               g_root.string().c_str());
  return 0;
}
