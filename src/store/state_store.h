// StateStore — snapshot + journal composed into one durable state slot,
// plus EpochLog, the minimal durable epoch floor the OPRF server uses
// to never recycle a served epoch across crashes.
//
// A StateStore named `base` owns two files: `base.snap` (the last
// compacted image, committed atomically) and `base.jrnl` (checksummed
// deltas appended since that image). The owner's recovery rule is:
// parse the snapshot, replay every journal record on top, and — if
// either file reports corruption (as opposed to an expected torn tail)
// — distrust all derived caches and resync from the network. Because a
// crash can land between checkpoint()'s snapshot commit and its journal
// reset, replaying old journal records over a NEWER snapshot must be
// harmless: owners encode records idempotently/monotonically (see
// DESIGN.md "Durability & recovery policy").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "store/fs.h"
#include "store/journal.h"
#include "store/snapshot.h"

namespace cbl::store {

/// Everything recovery learned from disk. `corrupt` means at-rest
/// damage beyond a torn tail was detected somewhere: the verified
/// prefix in `snapshot`/`records` is still returned, but the owner must
/// fail safe (drop derived caches, full resync) instead of trusting it.
struct LoadedState {
  std::optional<Bytes> snapshot;  // verified payload, if one exists
  std::vector<Bytes> records;     // verified journal records, in order
  bool corrupt = false;
  bool snapshot_present_but_damaged = false;
  RecoverStatus journal_status = RecoverStatus::kOk;
};

class StateStore {
 public:
  /// Files live at `base`.snap / `base`.jrnl under `fs`.
  StateStore(Fs& fs, std::string base);

  /// Recovers both halves from disk (normalizing the journal's torn
  /// tail on the way). Call once before append()/checkpoint().
  LoadedState load();

  /// Appends one durable journal record (fsynced before returning true).
  bool append(ByteView record);

  /// Compacts: atomically commits `payload` as the new snapshot, then
  /// resets the journal. A crash in between leaves the new snapshot
  /// plus the old journal — which is why owners' records must be safe
  /// to replay over a newer snapshot.
  bool checkpoint(ByteView payload);

  std::size_t journal_records() const { return journal_.record_count(); }

 private:
  // lock:unguarded(reference bound in the ctor and never reseated; Fs
  // implementations are internally synchronized or single-owner)
  Fs& fs_;
  const std::string snap_path_;
  Journal journal_;  // lock:unguarded(internally synchronized)
};

/// Durable monotone epoch floor. The OPRF server notes every epoch it
/// serves; after a crash, recover() returns the highest durably-noted
/// epoch and the rebuilt server restores at least that floor — so a
/// recycled (rolled-back) epoch can never be served twice.
class EpochLog {
 public:
  EpochLog(Fs& fs, std::string path);

  /// Replays the log; returns the highest valid epoch seen (0 when the
  /// log is fresh). Also compacts the log down to that single record.
  std::uint64_t recover();

  /// Durably notes `epoch` (no-op if not above the last noted value).
  /// Returns false when the note could not be made durable — the
  /// caller's crash-restart floor would then under-approximate.
  bool note(std::uint64_t epoch);

  std::uint64_t floor() const { return floor_; }

 private:
  Journal journal_;     // lock:unguarded(internally synchronized)
  // lock:unguarded(single-writer: mutated only by recover()/note(),
  // which the owning server already serializes under its data lock)
  std::uint64_t floor_ = 0;
};

}  // namespace cbl::store
