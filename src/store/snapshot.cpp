// wire:parser — snapshot images are parsed from untrusted at-rest bytes;
// all access goes through cbl::ByteReader.
#include "store/snapshot.h"

#include "common/codec.h"
#include "common/ct.h"
#include "hash/blake2b.h"

namespace cbl::store {

namespace {

Bytes snapshot_checksum(ByteView payload) {
  return hash::Blake2b::digest(payload, kSnapshotChecksumSize,
                               to_bytes(kSnapshotChecksumDomain));
}

}  // namespace

Bytes encode_snapshot(ByteView payload) {
  ByteWriter w;
  w.raw(to_bytes(kSnapshotMagic));
  w.u8(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(snapshot_checksum(payload));
  w.raw(payload);
  return w.take();
}

std::optional<Bytes> parse_snapshot(ByteView file) {
  ByteReader r(file);
  const Bytes magic = r.raw(kSnapshotMagic.size());
  if (!r.ok() || magic != to_bytes(kSnapshotMagic)) {
    return std::nullopt;
  }
  if (r.u8() != kSnapshotVersion) return std::nullopt;
  const std::uint32_t len = r.u32();
  if (len > kSnapshotMaxPayloadSize) return std::nullopt;
  const Bytes checksum = r.raw(kSnapshotChecksumSize);
  const Bytes payload = r.raw(len);
  if (!r.finish()) return std::nullopt;
  if (!ct_equal(checksum, snapshot_checksum(payload))) {
    return std::nullopt;
  }
  return payload;
}

bool write_snapshot(Fs& fs, const std::string& path, ByteView payload) {
  const std::string tmp = path + ".tmp";
  const Bytes image = encode_snapshot(payload);
  if (!fs.write(tmp, image)) return false;
  if (!fs.sync(tmp)) return false;
  if (!fs.rename(tmp, path)) return false;
  return fs.sync_dir();
}

std::optional<Bytes> load_snapshot(Fs& fs, const std::string& path) {
  const auto file = fs.read(path);
  if (!file) return std::nullopt;
  return parse_snapshot(*file);
}

}  // namespace cbl::store
