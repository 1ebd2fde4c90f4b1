// Checksummed, length-prefixed append-only journal — the incremental
// half of the durability layer (snapshots are the compacted half; see
// state_store.h and DESIGN.md "Durability & recovery policy").
//
// On-disk layout:
//
//   "CBLJRNL1"                                   8-byte file magic
//   repeated records:
//     u32 payload length (LE)
//     8-byte keyed-BLAKE2b checksum of the payload
//     payload bytes
//
// Recovery classifies damage into two regimes with different policies:
//
//   * TORN TAIL — the file ends inside a record's framing (a crash cut
//     an append short). Expected after power loss; the verified prefix
//     is kept and the tail is silently truncated.
//   * CORRUPTION — a structurally complete record fails its checksum,
//     or the magic itself is damaged (at-rest bit rot, a misdirected
//     write). Never expected: the verified prefix is still returned but
//     the status is kCorrupt, and owners must fail safe — drop derived
//     caches and trigger a full resync rather than serve damaged state.
//
// Either way recovery is TOTAL: at-rest bytes are untrusted input and
// every frame is parsed through cbl::ByteReader; no input can make
// recovery read out of bounds, throw, or yield an unverified record.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/thread_safety.h"
#include "store/fs.h"

namespace cbl::store {

inline constexpr std::string_view kJournalMagic = "CBLJRNL1";
inline constexpr std::string_view kJournalChecksumDomain =
    "cbl/store/journal/v1";
inline constexpr std::size_t kJournalChecksumSize = 8;
/// Pre-allocation bound against hostile length prefixes.
inline constexpr std::size_t kJournalMaxRecordSize = std::size_t{1} << 26;

enum class RecoverStatus : std::uint8_t {
  kOk = 0,        // clean file (possibly empty)
  kTornTail,      // incomplete framing at EOF — truncated, prefix kept
  kCorrupt,       // checksum/magic failure — prefix kept, owner must resync
};
std::string_view to_string(RecoverStatus status);

struct RecoveredJournal {
  std::vector<Bytes> records;  // every checksum-verified payload, in order
  RecoverStatus status = RecoverStatus::kOk;
  std::size_t valid_bytes = 0;    // length of the verified file prefix
  std::size_t dropped_bytes = 0;  // bytes past the verified prefix
};

/// The framed form of one record (length + checksum + payload).
Bytes encode_journal_record(ByteView payload);
/// One complete frame and nothing else; nullopt on any malformation.
// wire:untrusted fuzz=fuzz_store_journal
[[nodiscard]] std::optional<Bytes> parse_journal_record(ByteView data);

/// Scans a whole journal file image (untrusted at-rest bytes): returns
/// every verified record plus the damage classification above. Total
/// over arbitrary inputs; referenced by fuzz_store_journal.
RecoveredJournal scan_journal(ByteView file);

/// Append-only journal over an Fs path. recover() must run before the
/// first append; every append is fsynced before it reports success.
class Journal {
 public:
  Journal(Fs& fs, std::string path);

  /// Scans the file and normalizes it on disk: a missing file gains its
  /// header, a torn tail is truncated to the verified prefix, and a
  /// corrupt file is rewritten to its verified prefix (the kCorrupt
  /// status still tells the owner to distrust derived state).
  RecoveredJournal recover() CBL_EXCLUDES(mutex_);

  /// Appends one checksummed record and fsyncs it. Returns true only
  /// when both the append and the sync succeeded. A failed APPEND may
  /// have left a torn frame on disk, so it wounds the journal: further
  /// appends fail fast until recover() re-truncates. A failed sync
  /// leaves the framing intact (the record just isn't durable yet).
  bool append(ByteView payload) CBL_EXCLUDES(mutex_);

  /// Truncates to an empty journal (fresh header), e.g. right after the
  /// owning StateStore committed a snapshot. Clears the wounded latch.
  bool reset() CBL_EXCLUDES(mutex_);

  std::size_t record_count() const CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    return record_count_;
  }

 private:
  // lock:unguarded(reference bound in the ctor and never reseated; Fs
  // implementations are internally synchronized or single-owner)
  Fs& fs_;
  const std::string path_;

  mutable cbl::Mutex mutex_;  // lock: wounded latch and record counter
  bool wounded_ CBL_GUARDED_BY(mutex_) = false;
  std::size_t record_count_ CBL_GUARDED_BY(mutex_) = 0;
};

}  // namespace cbl::store
