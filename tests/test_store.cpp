// Tests for cbl::store, the crash-safe durability layer: the MemFs
// power-loss model, journal recovery (torn tails vs corruption, swept
// at every byte boundary), atomic snapshot commits, StateStore
// checkpointing, the EpochLog floor, FaultFs determinism — and the
// restart-survival regressions for the durable tlog Auditor (distrust
// latch, equivocation evidence, delta-resume on the persisted mirror).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blocklist/generator.h"
#include "chaos/fault_fs.h"
#include "common/rng.h"
#include "metric_delta.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "oprf/server.h"
#include "store/fs.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "store/state_store.h"
#include "tlog/tlog.h"

namespace cbl {
namespace {

using chaos::FaultFs;
using chaos::FsFaultPlan;
using store::MemFs;
using store::RecoverStatus;

using test::CounterDelta;

// ------------------------------------------------------------------ MemFs

TEST(MemFsTest, CrashRevertsToTheDurableView) {
  MemFs fs;
  ASSERT_TRUE(fs.write("a", to_bytes("v1")));
  ASSERT_TRUE(fs.sync("a"));
  ASSERT_TRUE(fs.write("a", to_bytes("v2-unsynced")));
  ASSERT_TRUE(fs.write("b", to_bytes("never-synced")));
  ASSERT_TRUE(fs.append("a", to_bytes("!")));

  fs.crash();
  EXPECT_EQ(fs.read("a"), to_bytes("v1"));
  EXPECT_FALSE(fs.exists("b"));

  // Appends after a sync are volatile until the next sync.
  ASSERT_TRUE(fs.append("a", to_bytes("+tail")));
  fs.crash();
  EXPECT_EQ(fs.read("a"), to_bytes("v1"));
  ASSERT_TRUE(fs.append("a", to_bytes("+tail")));
  ASSERT_TRUE(fs.sync("a"));
  fs.crash();
  EXPECT_EQ(fs.read("a"), to_bytes("v1+tail"));
}

TEST(MemFsTest, RenameIsDurableOnlyAfterDirSync) {
  MemFs fs;
  ASSERT_TRUE(fs.write("final", to_bytes("old")));
  ASSERT_TRUE(fs.sync("final"));
  ASSERT_TRUE(fs.write("tmp", to_bytes("new")));
  ASSERT_TRUE(fs.sync("tmp"));
  ASSERT_TRUE(fs.rename("tmp", "final"));
  EXPECT_EQ(fs.read("final"), to_bytes("new"));  // live view switched

  fs.crash();  // ...but the namespace change was never made durable
  EXPECT_EQ(fs.read("final"), to_bytes("old"));
  EXPECT_EQ(fs.read("tmp"), to_bytes("new"));

  ASSERT_TRUE(fs.rename("tmp", "final"));
  ASSERT_TRUE(fs.sync_dir());
  fs.crash();
  EXPECT_EQ(fs.read("final"), to_bytes("new"));
  EXPECT_FALSE(fs.exists("tmp"));

  // Post-crash images are independent copies: mutating the live file
  // must not bleed into what the NEXT crash restores.
  ASSERT_TRUE(fs.append("final", to_bytes("-dirty")));
  fs.crash();
  EXPECT_EQ(fs.read("final"), to_bytes("new"));

  ASSERT_TRUE(fs.remove("final"));
  EXPECT_FALSE(fs.exists("final"));
  fs.crash();  // unlink not dir-synced: the file comes back
  EXPECT_TRUE(fs.exists("final"));
  ASSERT_TRUE(fs.remove("final"));
  ASSERT_TRUE(fs.sync_dir());
  fs.crash();
  EXPECT_FALSE(fs.exists("final"));
}

// ---------------------------------------------------------------- journal

TEST(JournalTest, RecordParserIsExactAboutFraming) {
  const Bytes payload = to_bytes("hello journal");
  const Bytes frame = store::encode_journal_record(payload);
  ASSERT_EQ(frame.size(), 4 + store::kJournalChecksumSize + payload.size());

  const auto parsed = store::parse_journal_record(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, payload);

  // Truncation at every prefix, trailing garbage, flipped checksum.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(
        store::parse_journal_record(ByteView(frame.data(), cut)).has_value())
        << "cut=" << cut;
  }
  Bytes trailing = frame;
  trailing.push_back(0x00);
  EXPECT_FALSE(store::parse_journal_record(trailing).has_value());
  Bytes flipped = frame;
  flipped[5] ^= 0x01;  // inside the checksum
  EXPECT_FALSE(store::parse_journal_record(flipped).has_value());
}

TEST(JournalTest, SyncedAppendsSurviveACrash) {
  MemFs fs;
  store::Journal journal(fs, "j");
  const auto fresh = journal.recover();
  EXPECT_EQ(fresh.status, RecoverStatus::kOk);
  EXPECT_TRUE(fresh.records.empty());

  std::vector<Bytes> payloads;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(to_bytes("record-" + std::to_string(i)));
    ASSERT_TRUE(journal.append(payloads.back()));
  }
  EXPECT_EQ(journal.record_count(), 5u);

  fs.crash();
  store::Journal reborn(fs, "j");
  const auto recovered = reborn.recover();
  EXPECT_EQ(recovered.status, RecoverStatus::kOk);
  EXPECT_EQ(recovered.records, payloads);
  EXPECT_EQ(recovered.dropped_bytes, 0u);
}

/// Builds a well-formed journal file image with `n` records.
std::vector<Bytes> journal_image(int n, Bytes* image) {
  *image = to_bytes(store::kJournalMagic);
  std::vector<Bytes> payloads;
  for (int i = 0; i < n; ++i) {
    payloads.push_back(to_bytes("payload-" + std::to_string(i) + "-x"));
    append(*image, store::encode_journal_record(payloads.back()));
  }
  return payloads;
}

// The record-boundary sweep, byte-granular: truncating the file at
// EVERY offset must classify as a torn tail (or a clean file when the
// cut lands exactly on a frame boundary), keep exactly the verified
// prefix, and never fabricate or alter a record.
TEST(JournalTest, TruncationAtEveryByteKeepsExactlyTheVerifiedPrefix) {
  Bytes image;
  const auto payloads = journal_image(4, &image);

  std::vector<std::size_t> boundaries;  // file sizes that are clean
  std::size_t at = to_bytes(store::kJournalMagic).size();
  boundaries.push_back(at);
  for (const auto& p : payloads) {
    at += 4 + store::kJournalChecksumSize + p.size();
    boundaries.push_back(at);
  }
  ASSERT_EQ(at, image.size());

  MemFs fs;
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const auto scanned = store::scan_journal(ByteView(image.data(), cut));
    std::size_t complete = 0;
    while (complete < boundaries.size() && boundaries[complete] <= cut) {
      ++complete;
    }
    const std::size_t expect_records = complete == 0 ? 0 : complete - 1;
    ASSERT_EQ(scanned.records.size(), expect_records);
    for (std::size_t i = 0; i < scanned.records.size(); ++i) {
      EXPECT_EQ(scanned.records[i], payloads[i]);
    }
    const bool on_boundary =
        complete > 0 && boundaries[complete - 1] == cut;
    EXPECT_EQ(scanned.status,
              cut == 0 ? RecoverStatus::kOk
                       : (on_boundary ? RecoverStatus::kOk
                                      : RecoverStatus::kTornTail));
    EXPECT_NE(scanned.status, RecoverStatus::kCorrupt);

    // Journal::recover normalizes the torn file on disk and the journal
    // accepts appends again.
    ASSERT_TRUE(fs.write("t", ByteView(image.data(), cut)));
    ASSERT_TRUE(fs.sync("t"));
    store::Journal journal(fs, "t");
    const auto recovered = journal.recover();
    EXPECT_EQ(recovered.records.size(), expect_records);
    ASSERT_TRUE(journal.append(to_bytes("post-recovery")));
    store::Journal again(fs, "t");
    const auto reread = again.recover();
    EXPECT_EQ(reread.status, RecoverStatus::kOk);
    ASSERT_EQ(reread.records.size(), expect_records + 1);
    EXPECT_EQ(reread.records.back(), to_bytes("post-recovery"));
  }
}

// Bit rot: flipping one bit at every byte offset of a complete file
// must never yield an unverified or altered record — the scan returns a
// strict prefix of the original records and never reports kOk.
TEST(JournalTest, BitFlipAtEveryByteNeverYieldsAnUnverifiedRecord) {
  Bytes image;
  const auto payloads = journal_image(3, &image);
  for (std::size_t i = 0; i < image.size(); ++i) {
    SCOPED_TRACE("flip at byte " + std::to_string(i));
    Bytes damaged = image;
    damaged[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    const auto scanned = store::scan_journal(damaged);
    EXPECT_NE(scanned.status, RecoverStatus::kOk);
    ASSERT_LT(scanned.records.size(), payloads.size());
    for (std::size_t r = 0; r < scanned.records.size(); ++r) {
      EXPECT_EQ(scanned.records[r], payloads[r]);
    }
  }
}

// --------------------------------------------------------------- snapshot

TEST(SnapshotTest, ParserIsTotalOverDamage) {
  const Bytes payload = to_bytes("snapshot payload bytes");
  const Bytes image = store::encode_snapshot(payload);

  const auto parsed = store::parse_snapshot(image);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, payload);

  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    EXPECT_FALSE(store::parse_snapshot(ByteView(image.data(), cut)))
        << "cut=" << cut;
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    Bytes damaged = image;
    damaged[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_FALSE(store::parse_snapshot(damaged)) << "flip at " << i;
  }
  Bytes trailing = image;
  trailing.push_back(0x00);
  EXPECT_FALSE(store::parse_snapshot(trailing));
}

// The commit sequence is write tmp / sync tmp / rename / sync dir — a
// crash injected at every one of those four boundaries must leave the
// OLD snapshot as the durable one, and only a complete commit switches.
TEST(SnapshotTest, CommitIsAtomicAtEveryOperationBoundary) {
  for (std::int64_t crash_at = 0; crash_at <= 4; ++crash_at) {
    SCOPED_TRACE("crash_at_op=" + std::to_string(crash_at));
    MemFs mem;
    ASSERT_TRUE(store::write_snapshot(mem, "s", to_bytes("v1")));
    mem.crash();
    ASSERT_EQ(store::load_snapshot(mem, "s"), to_bytes("v1"));

    FsFaultPlan plan;
    plan.name = "snap-commit";
    plan.crash_at_op = crash_at;
    FaultFs ffs(mem, plan);
    const bool ok = store::write_snapshot(ffs, "s", to_bytes("v2"));
    mem.crash();
    const auto after = store::load_snapshot(mem, "s");
    ASSERT_TRUE(after.has_value());
    if (crash_at < 4) {
      EXPECT_FALSE(ok);
      EXPECT_EQ(*after, to_bytes("v1")) << "commit tore";
    } else {
      EXPECT_TRUE(ok);  // all four ops ran before the crash point
      EXPECT_EQ(*after, to_bytes("v2"));
    }
  }

  // A refused rename fails the commit and leaves the old image durable
  // AND live.
  MemFs mem;
  ASSERT_TRUE(store::write_snapshot(mem, "s", to_bytes("v1")));
  FsFaultPlan plan;
  plan.name = "snap-rename-fail";
  plan.rename_fail_prob = 1.0;
  FaultFs ffs(mem, plan);
  EXPECT_FALSE(store::write_snapshot(ffs, "s", to_bytes("v2")));
  EXPECT_EQ(store::load_snapshot(mem, "s"), to_bytes("v1"));
}

// ------------------------------------------------------------- StateStore

TEST(StateStoreTest, CheckpointPlusJournalReplayAcrossCrash) {
  MemFs fs;
  {
    store::StateStore store(fs, "st");
    const auto fresh = store.load();
    EXPECT_FALSE(fresh.snapshot.has_value());
    EXPECT_TRUE(fresh.records.empty());
    EXPECT_FALSE(fresh.corrupt);

    ASSERT_TRUE(store.append(to_bytes("r1")));
    ASSERT_TRUE(store.append(to_bytes("r2")));
    ASSERT_TRUE(store.checkpoint(to_bytes("S1")));
    EXPECT_EQ(store.journal_records(), 0u);
    ASSERT_TRUE(store.append(to_bytes("r3")));
  }
  fs.crash();
  {
    store::StateStore store(fs, "st");
    const auto loaded = store.load();
    ASSERT_TRUE(loaded.snapshot.has_value());
    EXPECT_EQ(*loaded.snapshot, to_bytes("S1"));
    EXPECT_EQ(loaded.records, std::vector<Bytes>{to_bytes("r3")});
    EXPECT_FALSE(loaded.corrupt);
  }

  // At-rest damage to the snapshot is CORRUPTION, not a torn tail: the
  // load says so and owners must fail safe to a full resync.
  auto snap = fs.read("st.snap");
  ASSERT_TRUE(snap.has_value());
  (*snap)[snap->size() / 2] ^= 0x10;
  ASSERT_TRUE(fs.write("st.snap", *snap));
  ASSERT_TRUE(fs.sync("st.snap"));
  store::StateStore store(fs, "st");
  const auto damaged = store.load();
  EXPECT_FALSE(damaged.snapshot.has_value());
  EXPECT_TRUE(damaged.snapshot_present_but_damaged);
  EXPECT_TRUE(damaged.corrupt);
  EXPECT_EQ(damaged.records, std::vector<Bytes>{to_bytes("r3")});
}

// checkpoint() = snapshot commit (4 fs ops) then journal reset (2 fs
// ops). A crash at every boundary leaves either old snapshot + old
// journal, or new snapshot + old journal (the documented replay-over-
// newer-snapshot window) — never a torn or empty intermediate.
TEST(StateStoreTest, CrashBetweenSnapshotCommitAndJournalReset) {
  const std::vector<Bytes> old_records = {to_bytes("a"), to_bytes("b")};
  for (std::int64_t crash_at = 0; crash_at <= 6; ++crash_at) {
    SCOPED_TRACE("crash_at_op=" + std::to_string(crash_at));
    MemFs mem;
    {
      store::StateStore setup(mem, "st");
      (void)setup.load();
      ASSERT_TRUE(setup.checkpoint(to_bytes("OLD")));
      for (const auto& r : old_records) ASSERT_TRUE(setup.append(r));
    }
    FsFaultPlan plan;
    plan.name = "ckpt-sweep";
    plan.crash_at_op = crash_at;
    FaultFs ffs(mem, plan);
    {
      store::StateStore store(ffs, "st");
      (void)store.load();
      const bool ok = store.checkpoint(to_bytes("NEW"));
      EXPECT_EQ(ok, crash_at >= 6);  // any earlier crash fails a step
    }
    mem.crash();
    store::StateStore reborn(mem, "st");
    const auto loaded = reborn.load();
    EXPECT_FALSE(loaded.corrupt);
    ASSERT_TRUE(loaded.snapshot.has_value());
    if (crash_at < 4) {
      EXPECT_EQ(*loaded.snapshot, to_bytes("OLD"));
      EXPECT_EQ(loaded.records, old_records);
    } else {
      EXPECT_EQ(*loaded.snapshot, to_bytes("NEW"));
      // Journal reset was cut short: the OLD records are still there
      // (their replay must be harmless — the owners' monotonicity
      // contract) or already durably gone.
      if (!loaded.records.empty()) {
        EXPECT_EQ(loaded.records, old_records);
      }
    }
  }
}

// --------------------------------------------------------------- EpochLog

TEST(EpochLogTest, FloorIsMonotoneDurableAndCompacts) {
  MemFs fs;
  {
    store::EpochLog log(fs, "e.jrnl");
    EXPECT_EQ(log.recover(), 0u);
    EXPECT_TRUE(log.note(1));
    EXPECT_TRUE(log.note(2));
    EXPECT_TRUE(log.note(3));
    EXPECT_TRUE(log.note(2));  // at/below the floor: durable no-op
    EXPECT_EQ(log.floor(), 3u);
  }
  fs.crash();

  const std::size_t full_size = fs.read("e.jrnl")->size();
  store::EpochLog reborn(fs, "e.jrnl");
  EXPECT_EQ(reborn.recover(), 3u);
  // Recovery compacted three records down to one.
  EXPECT_LT(fs.read("e.jrnl")->size(), full_size);
  EXPECT_TRUE(reborn.note(5));
  fs.crash();

  // A torn tail (half-appended note) is truncated, not fatal.
  ASSERT_TRUE(fs.append("e.jrnl", Bytes{0x09, 0x00}));
  ASSERT_TRUE(fs.sync("e.jrnl"));
  store::EpochLog torn(fs, "e.jrnl");
  EXPECT_EQ(torn.recover(), 5u);
}

// ---------------------------------------------------------------- FaultFs

TEST(FaultFsTest, SameSeedSameFaultsAndCountersMirrorStats) {
  const auto drive = [](FaultFs& fs) {
    for (int i = 0; i < 60; ++i) {
      std::string path = "f";
      path += std::to_string(i % 4);
      (void)fs.write(path, to_bytes("content-" + std::to_string(i)));
      (void)fs.append(path, to_bytes("+t"));
      (void)fs.sync(path);
      if (i % 7 == 0) (void)fs.rename(path, path + ".r");
      if (i % 11 == 0) (void)fs.sync_dir();
    }
  };
  FsFaultPlan plan;
  plan.name = "determinism";
  plan.seed = 424242;
  plan.short_write_prob = 0.1;
  plan.torn_write_prob = 0.1;
  plan.bit_flip_prob = 0.1;
  plan.fsync_lie_prob = 0.1;
  plan.rename_fail_prob = 0.1;

  // One run's footprint: the fs-fault counters it moved, kind by kind,
  // plus the mutating ops it saw.
  const auto run = [&](MemFs& mem) {
    std::map<std::string, std::uint64_t> out;
    std::map<std::string, CounterDelta> faults;
    for (const char* kind : {"short_write", "torn_write", "bit_flip",
                             "fsync_lie", "rename_fail", "crash"}) {
      faults.emplace(kind, CounterDelta("cbl_chaos_fs_faults_total",
                                        {{"kind", kind}}));
    }
    FaultFs fs(mem, plan);
    drive(fs);
    for (const auto& [kind, delta] : faults) out[kind] = delta.value();
    out["ops"] = fs.ops();
    return out;
  };
  MemFs mem_a;
  const auto a = run(mem_a);
  MemFs mem_b;
  const auto b = run(mem_b);

  EXPECT_EQ(a, b);
  EXPECT_GT(a.at("short_write") + a.at("torn_write") + a.at("bit_flip") +
                a.at("fsync_lie") + a.at("rename_fail"),
            0u);
  EXPECT_EQ(a.at("crash"), 0u);

  // Identical fault schedules leave bit-identical durable worlds.
  mem_a.crash();
  mem_b.crash();
  for (int i = 0; i < 4; ++i) {
    const std::string path = "f" + std::to_string(i);
    EXPECT_EQ(mem_a.read(path), mem_b.read(path)) << path;
    EXPECT_EQ(mem_a.read(path + ".r"), mem_b.read(path + ".r")) << path;
  }
}

TEST(FaultFsTest, CrashPointAppliesAPrefixThenRefusesEverything) {
  MemFs mem;
  FsFaultPlan plan;
  plan.name = "crash-point";
  plan.seed = 7;
  plan.crash_at_op = 2;
  FaultFs fs(mem, plan);
  const CounterDelta crashes("cbl_chaos_fs_faults_total", {{"kind", "crash"}});

  EXPECT_TRUE(fs.write("a", to_bytes("first")));   // op 0
  EXPECT_TRUE(fs.sync("a"));                       // op 1
  EXPECT_FALSE(fs.crashed());
  EXPECT_FALSE(fs.write("b", to_bytes("second"))); // op 2: the crash
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(fs.sync("b"));
  EXPECT_FALSE(fs.write("c", to_bytes("third")));
  EXPECT_FALSE(fs.rename("a", "z"));
  EXPECT_FALSE(fs.sync_dir());
  // Reads still pass through (the harness inspects the dead disk).
  EXPECT_EQ(fs.read("a"), to_bytes("first"));

  EXPECT_EQ(crashes.value(), 1u);
  EXPECT_EQ(fs.ops(), 7u);  // refused ops still advance the op index

  mem.crash();
  EXPECT_EQ(mem.read("a"), to_bytes("first"));
  // The crash op applied at most a prefix of "second".
  const auto b = mem.read("b");
  if (b.has_value()) {
    EXPECT_LE(b->size(), to_bytes("second").size());
  }
}

// ------------------------------------------- OPRF epoch floor durability

TEST(StoreTest, EpochListenerDrivesADurableFloorAcrossRestart) {
  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("floor-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("floor-server");
  const auto corpus = blocklist::generate_corpus(20, corpus_rng).addresses();

  MemFs fs;
  std::vector<std::uint64_t> fired;
  {
    oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);
    server.setup(std::span<const std::string>(corpus).first(10));
    store::EpochLog log(fs, "epoch.jrnl");
    EXPECT_EQ(log.recover(), 0u);
    server.set_epoch_listener([&fired, &log](std::uint64_t epoch) {
      fired.push_back(epoch);
      (void)log.note(epoch);
    });
    // Installing on a live server fires immediately with the current
    // epoch, so no served epoch predates the listener.
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], server.epoch());

    server.add_entries(std::span<const std::string>(corpus).subspan(10, 2));
    server.add_entries(std::span<const std::string>(corpus).subspan(12, 2));
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired.back(), server.epoch());
    EXPECT_EQ(log.floor(), server.epoch());
  }

  fs.crash();
  store::EpochLog log(fs, "epoch.jrnl");
  const std::uint64_t floor = log.recover();
  EXPECT_EQ(floor, fired.back());

  // The rebuilt server restores the floor and its next epoch strictly
  // exceeds everything ever served — no epoch number is recycled.
  oprf::OprfServer reborn(oprf::Oracle::fast(), 6, server_rng);
  reborn.restore_epoch(floor);
  reborn.set_epoch_listener([&log](std::uint64_t epoch) {
    (void)log.note(epoch);
  });
  reborn.setup(std::span<const std::string>(corpus).first(10));
  EXPECT_GT(reborn.epoch(), floor);
  EXPECT_EQ(log.floor(), reborn.epoch());
}

// --------------------------------------- durable auditor restart survival

// The headline regression: a client whose auditor persisted its mirror
// resumes DELTA sync after a crash-restart — wire bytes a small
// fraction of the full re-download a memoryless client would pay — and
// the recovered mirror keeps verifying against live provider state.
TEST(StoreTest, AuditorStateSurvivesRestartAndResumesDeltaSync) {
  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("durable-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("durable-server");
  ChaChaRng key_rng = ChaChaRng::from_string_seed("durable-key");
  ChaChaRng pub_rng = ChaChaRng::from_string_seed("durable-pub");
  ChaChaRng client_rng = ChaChaRng::from_string_seed("durable-client");
  ChaChaRng transport_rng = ChaChaRng::from_string_seed("durable-trans");

  const auto corpus = blocklist::generate_corpus(220, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);
  server.setup(std::span<const std::string>(corpus).first(200));
  const auto key = nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);
  net::Transport transport(net::TransportConfig(), transport_rng);
  net::BlocklistServiceNode node(transport, "durable", server,
                                 oprf::Oracle::fast(), net::NodeLimits(),
                                 nullptr, &publisher);
  net::RemoteBlocklistClient client(transport, "durable", client_rng);

  MemFs fs;
  std::uint64_t full_bytes_first = 0;
  std::uint64_t synced_epoch = 0;
  {
    store::StateStore store(fs, "aud");
    tlog::Auditor auditor(key.pk, "durable", &store);
    auto report = client.verified_sync(auditor);
    ASSERT_TRUE(report.ok);
    EXPECT_GT(report.full_bytes, 0u);  // first contact: full download
    full_bytes_first = report.full_bytes;

    std::size_t next_fresh = 200;
    for (int round = 0; round < 3; ++round) {
      server.add_entries(
          std::span<const std::string>(corpus).subspan(next_fresh, 2));
      next_fresh += 2;
      report = client.verified_sync(auditor);
      ASSERT_TRUE(report.ok);
      EXPECT_GT(report.deltas_applied, 0u);
      EXPECT_EQ(report.full_bytes, 0u);
    }
    synced_epoch = auditor.mirror_epoch();
    EXPECT_EQ(auditor.persist_failures(), 0u);
  }

  fs.crash();
  // The provider moves on while the client is down.
  server.add_entries(std::span<const std::string>(corpus).subspan(206, 2));

  store::StateStore store(fs, "aud");
  tlog::Auditor recovered(key.pk, "durable", &store);
  ASSERT_TRUE(recovered.trusted());
  ASSERT_TRUE(recovered.has_state());
  EXPECT_EQ(recovered.mirror_epoch(), synced_epoch);

  const auto report = client.verified_sync(recovered);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.full_bytes, 0u) << "restart forgot the mirror";
  EXPECT_GT(report.deltas_applied, 0u);
  EXPECT_GT(report.delta_bytes, 0u);
  // Wire cost of resuming ≪ the full re-download a memoryless client
  // would pay (the whole point of persisting the mirror).
  EXPECT_LT(report.delta_bytes * 4, full_bytes_first);
  EXPECT_EQ(recovered.mirror_epoch(), server.epoch());
  EXPECT_EQ(recovered.buckets(), server.bucket_snapshot());
}

TEST(StoreTest, DistrustAndEvidenceSurviveRestartEvenWithDamagedFiles) {
  ChaChaRng key_rng = ChaChaRng::from_string_seed("distrust-key");
  ChaChaRng rng = ChaChaRng::from_string_seed("distrust-rng");
  const auto key = nizk::SigningKey::generate(key_rng);
  const auto root = chain::MerkleTree::hash_leaf(to_bytes("honest-root"));
  auto other = root;
  other[3] ^= 0x08;
  const auto honest = tlog::sign_checkpoint(key, 7, root, 3, rng);
  const auto forged = tlog::sign_checkpoint(key, 7, other, 3, rng);

  MemFs fs;
  {
    store::StateStore store(fs, "aud");
    tlog::Auditor auditor(key.pk, "distrust-origin", &store);
    EXPECT_EQ(auditor.observe_checkpoint(honest, nullptr),
              tlog::Auditor::Status::kOk);
    EXPECT_EQ(auditor.observe_checkpoint(forged, nullptr),
              tlog::Auditor::Status::kEquivocation);
    ASSERT_TRUE(auditor.equivocation_evidence().has_value());
    EXPECT_TRUE(auditor.equivocation_evidence()->proves_equivocation(key.pk));
    EXPECT_EQ(auditor.persist_failures(), 0u);
  }
  fs.crash();
  const Bytes snap = *fs.read("aud.snap");
  const Bytes jrnl = *fs.read("aud.jrnl");

  // The latch lives redundantly in both files: damaging EITHER one (or
  // neither) still recovers a condemned provider with usable evidence.
  const auto check_recovered = [&](Bytes snap_bytes, Bytes jrnl_bytes,
                                   const char* label) {
    SCOPED_TRACE(label);
    MemFs world;
    ASSERT_TRUE(world.write("aud.snap", snap_bytes));
    ASSERT_TRUE(world.sync("aud.snap"));
    ASSERT_TRUE(world.write("aud.jrnl", jrnl_bytes));
    ASSERT_TRUE(world.sync("aud.jrnl"));
    store::StateStore store(world, "aud");
    tlog::Auditor recovered(key.pk, label, &store);
    EXPECT_FALSE(recovered.trusted()) << "distrust was lost";
    ASSERT_TRUE(recovered.equivocation_evidence().has_value());
    EXPECT_TRUE(
        recovered.equivocation_evidence()->proves_equivocation(key.pk));
    // Condemned means condemned: even the honest checkpoint is refused.
    EXPECT_EQ(recovered.observe_checkpoint(honest, nullptr),
              tlog::Auditor::Status::kDistrusted);
  };

  check_recovered(snap, jrnl, "both-files-intact");
  Bytes bad_snap = snap;
  bad_snap[bad_snap.size() / 2] ^= 0x20;
  check_recovered(bad_snap, jrnl, "snapshot-rotted");
  Bytes bad_jrnl = jrnl;
  bad_jrnl[bad_jrnl.size() - 3] ^= 0x20;
  check_recovered(snap, bad_jrnl, "journal-rotted");
  check_recovered(Bytes(), jrnl, "snapshot-gone");
  check_recovered(snap, Bytes(), "journal-gone");
}

TEST(StoreTest, ResilientClientRestoresDistrustFromStoreWithoutRecounting) {
  ChaChaRng key_rng = ChaChaRng::from_string_seed("rc-distrust-key");
  ChaChaRng rng = ChaChaRng::from_string_seed("rc-distrust-rng");
  ChaChaRng client_rng = ChaChaRng::from_string_seed("rc-distrust-client");
  ChaChaRng transport_rng = ChaChaRng::from_string_seed("rc-distrust-trans");
  const auto key = nizk::SigningKey::generate(key_rng);
  const auto root = chain::MerkleTree::hash_leaf(to_bytes("rc-root"));
  auto other = root;
  other[0] ^= 0x01;

  MemFs fs;
  {
    store::StateStore store(fs, "aud");
    tlog::Auditor auditor(key.pk, "rc-distrust", &store);
    (void)auditor.observe_checkpoint(tlog::sign_checkpoint(key, 4, root, 2, rng),
                                     nullptr);
    EXPECT_EQ(auditor.observe_checkpoint(
                  tlog::sign_checkpoint(key, 4, other, 2, rng), nullptr),
              tlog::Auditor::Status::kEquivocation);
  }
  fs.crash();

  net::Transport transport(net::TransportConfig(), transport_rng);
  store::StateStore store(fs, "aud");  // outlives the client below
  net::ResilientClient client(transport, {"rc-distrust"}, client_rng);
  const CounterDelta distrusted("cbl_tlog_providers_distrusted_total");
  client.pin_tlog_key("rc-distrust", key.pk, &store);

  // The condemnation is restored, the endpoint is skipped on the wire,
  // and the restart does NOT count as a fresh distrust transition.
  EXPECT_TRUE(client.distrusted("rc-distrust"));
  const auto* auditor = client.tlog_auditor("rc-distrust");
  ASSERT_NE(auditor, nullptr);
  EXPECT_FALSE(auditor->trusted());
  ASSERT_TRUE(auditor->equivocation_evidence().has_value());
  EXPECT_EQ(client.sync(), 0u);
  EXPECT_EQ(distrusted.value(), 0u);
}

// ----------------------------------------------------------------- RealFs

TEST(RealFsTest, JournalAndSnapshotRoundTripOnThePosixBackend) {
  const std::string root = "realfs-store-test";
  std::filesystem::remove_all(root);
  {
    store::RealFs fs(root);
    EXPECT_FALSE(fs.exists("j"));

    store::Journal journal(fs, "j");
    EXPECT_EQ(journal.recover().status, RecoverStatus::kOk);
    ASSERT_TRUE(journal.append(to_bytes("one")));
    ASSERT_TRUE(journal.append(to_bytes("two")));

    store::Journal reread(fs, "j");
    const auto recovered = reread.recover();
    EXPECT_EQ(recovered.status, RecoverStatus::kOk);
    EXPECT_EQ(recovered.records,
              (std::vector<Bytes>{to_bytes("one"), to_bytes("two")}));

    ASSERT_TRUE(store::write_snapshot(fs, "s", to_bytes("real-payload")));
    EXPECT_EQ(store::load_snapshot(fs, "s"), to_bytes("real-payload"));
    EXPECT_FALSE(fs.exists("s.tmp"));  // renamed over the final name

    // A torn tail planted directly in the file is recovered over.
    ASSERT_TRUE(fs.append("j", Bytes{0x40, 0x00, 0x00}));
    store::Journal torn(fs, "j");
    const auto after = torn.recover();
    EXPECT_EQ(after.status, RecoverStatus::kTornTail);
    EXPECT_EQ(after.records.size(), 2u);

    EXPECT_TRUE(fs.remove("s"));
    EXPECT_TRUE(fs.sync_dir());
    EXPECT_FALSE(fs.exists("s"));
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace cbl
