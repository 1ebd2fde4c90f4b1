// wire:parser — journal frames are parsed from untrusted at-rest bytes;
// all access goes through cbl::ByteReader.
#include "store/journal.h"

#include <utility>

#include "common/codec.h"
#include "common/ct.h"
#include "hash/blake2b.h"

namespace cbl::store {

std::string_view to_string(RecoverStatus status) {
  switch (status) {
    case RecoverStatus::kOk: return "ok";
    case RecoverStatus::kTornTail: return "torn_tail";
    case RecoverStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

namespace {

Bytes record_checksum(ByteView payload) {
  return hash::Blake2b::digest(payload, kJournalChecksumSize,
                               to_bytes(kJournalChecksumDomain));
}

Bytes header_bytes() {
  return to_bytes(kJournalMagic);
}

}  // namespace

Bytes encode_journal_record(ByteView payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(record_checksum(payload));
  w.raw(payload);
  return w.take();
}

std::optional<Bytes> parse_journal_record(ByteView data) {
  ByteReader r(data);
  const std::uint32_t len = r.u32();
  if (len > kJournalMaxRecordSize) return std::nullopt;
  const Bytes checksum = r.raw(kJournalChecksumSize);
  const Bytes payload = r.raw(len);
  if (!r.finish()) return std::nullopt;
  if (!ct_equal(checksum, record_checksum(payload))) {
    return std::nullopt;
  }
  return payload;
}

RecoveredJournal scan_journal(ByteView file) {
  RecoveredJournal out;
  if (file.empty()) return out;  // fresh (header not yet written)
  if (file.size() < kJournalMagic.size()) {
    // A crash mid-header-write leaves a prefix of the magic.
    out.status = RecoverStatus::kTornTail;
    out.dropped_bytes = file.size();
    return out;
  }
  ByteReader r(file);
  const Bytes magic = r.raw(kJournalMagic.size());
  if (magic != header_bytes()) {
    // Wrong magic on a full-size header: this is not (a prefix of) a
    // journal — nothing in the file can be trusted.
    out.status = RecoverStatus::kCorrupt;
    out.dropped_bytes = file.size();
    return out;
  }
  out.valid_bytes = kJournalMagic.size();
  while (!r.done()) {
    const std::size_t frame_start = file.size() - r.remaining();
    if (r.remaining() < 4 + kJournalChecksumSize) {
      out.status = RecoverStatus::kTornTail;
      break;
    }
    const std::uint32_t len = r.u32();
    if (len > kJournalMaxRecordSize) {
      // An insane length prefix cannot come from a torn append (lengths
      // are written first, whole): classify as at-rest corruption.
      out.status = RecoverStatus::kCorrupt;
      break;
    }
    const Bytes checksum = r.raw(kJournalChecksumSize);
    if (len > r.remaining()) {
      out.status = RecoverStatus::kTornTail;  // payload cut short at EOF
      break;
    }
    Bytes payload = r.raw(len);
    if (!r.ok()) {
      out.status = RecoverStatus::kTornTail;
      break;
    }
    if (!ct_equal(checksum, record_checksum(payload))) {
      // Structurally complete record, wrong checksum: bit rot, not a
      // torn append. The verified prefix stands; the owner must not.
      out.status = RecoverStatus::kCorrupt;
      break;
    }
    out.records.push_back(std::move(payload));
    out.valid_bytes = frame_start + 4 + kJournalChecksumSize + len;
  }
  out.dropped_bytes = file.size() - out.valid_bytes;
  return out;
}

Journal::Journal(Fs& fs, std::string path)
    : fs_(fs), path_(std::move(path)) {}

RecoveredJournal Journal::recover() {
  MutexLock lock(mutex_);
  const auto file = fs_.read(path_);
  RecoveredJournal rec;
  if (file) rec = scan_journal(*file);
  const std::size_t want_size = file ? rec.valid_bytes : 0;
  if (!file || file->size() != want_size || want_size == 0) {
    // Normalize on disk: header plus exactly the verified records.
    Bytes image = header_bytes();
    for (const Bytes& record : rec.records) {
      cbl::append(image, encode_journal_record(record));
    }
    if (fs_.write(path_, image) && fs_.sync(path_)) {
      wounded_ = false;
    } else {
      wounded_ = true;  // could not truncate the damaged tail
    }
  } else {
    wounded_ = false;
  }
  record_count_ = rec.records.size();
  return rec;
}

bool Journal::append(ByteView payload) {
  MutexLock lock(mutex_);
  if (wounded_) return false;
  const Bytes frame = encode_journal_record(payload);
  if (!fs_.append(path_, frame)) {
    // The fs may have applied a prefix of the frame (short/torn write):
    // the tail is no longer trustworthy for further appends.
    wounded_ = true;
    return false;
  }
  ++record_count_;
  return fs_.sync(path_);
}

bool Journal::reset() {
  MutexLock lock(mutex_);
  record_count_ = 0;
  if (fs_.write(path_, header_bytes()) && fs_.sync(path_)) {
    wounded_ = false;
    return true;
  }
  wounded_ = true;
  return false;
}

}  // namespace cbl::store
