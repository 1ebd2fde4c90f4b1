// cbl::store — the crash-safe durability layer's filesystem seam.
//
// Every byte the store writes goes through this injectable Fs interface,
// which models exactly the POSIX durability contract the journal and
// snapshot code rely on — nothing more:
//
//   * write/append mutate the CURRENT (live) view immediately but are
//     VOLATILE: a crash before sync(path) may lose or truncate them.
//   * sync(path) is fsync: the file's current content, and its directory
//     entry, become durable.
//   * rename(from, to) atomically replaces `to` in the live view; the
//     *namespace* change is durable only after sync_dir() (or a later
//     sync of the new name).
//   * crash, in MemFs, reverts the live view to the durable one — the
//     power-loss model the chaos sweeps drive (chaos::FaultFs layers
//     seeded short writes, torn writes, bit flips, fsync lies and crash
//     points on top of any Fs).
//
// Paths are flat opaque names within the store's root; implementations
// never interpret them. All at-rest bytes read back through this
// interface are UNTRUSTED — callers parse them with cbl::ByteReader and
// verify checksums before use (DESIGN.md "Durability & recovery policy").
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/thread_safety.h"

namespace cbl::store {

class Fs {
 public:
  virtual ~Fs() = default;

  /// Whole-file read of the live view; nullopt when absent/unreadable.
  virtual std::optional<Bytes> read(const std::string& path) = 0;
  /// Replaces the file's content (creating it). Volatile until sync().
  virtual bool write(const std::string& path, ByteView data) = 0;
  /// Appends to the file (creating it). Volatile until sync().
  virtual bool append(const std::string& path, ByteView data) = 0;
  /// fsync: makes the file's current content and its name durable.
  virtual bool sync(const std::string& path) = 0;
  /// Atomic replace in the live namespace; durable after sync_dir().
  virtual bool rename(const std::string& from, const std::string& to) = 0;
  /// Unlinks from the live namespace; durable after sync_dir().
  virtual bool remove(const std::string& path) = 0;
  virtual bool exists(const std::string& path) = 0;
  /// Directory fsync: makes pending renames/removals/creations durable.
  virtual bool sync_dir() = 0;
};

/// In-memory Fs with an explicit durable-vs-volatile split, for tests and
/// the chaos sweeps. Each file is an inode carrying a live and a durable
/// byte image; the namespace likewise exists in a live and a durable
/// copy. crash() models power loss: the live world is discarded and
/// rebuilt from the durable one, so anything not fsynced — appended
/// record tails, renamed-but-not-dir-synced snapshots, removed files —
/// reverts exactly the way a real disk would present it after reboot.
class MemFs final : public Fs {
 public:
  std::optional<Bytes> read(const std::string& path) override
      CBL_EXCLUDES(mutex_);
  bool write(const std::string& path, ByteView data) override
      CBL_EXCLUDES(mutex_);
  bool append(const std::string& path, ByteView data) override
      CBL_EXCLUDES(mutex_);
  bool sync(const std::string& path) override CBL_EXCLUDES(mutex_);
  bool rename(const std::string& from, const std::string& to) override
      CBL_EXCLUDES(mutex_);
  bool remove(const std::string& path) override CBL_EXCLUDES(mutex_);
  bool exists(const std::string& path) override CBL_EXCLUDES(mutex_);
  bool sync_dir() override CBL_EXCLUDES(mutex_);

  /// Power loss: live state := durable state. Unsynced appends/writes,
  /// pending renames and removals are gone; previously removed but
  /// still-durable files reappear.
  void crash() CBL_EXCLUDES(mutex_);

 private:
  struct Inode {
    Bytes live;
    Bytes durable;
    bool content_durable = false;
  };
  using InodeRef = std::shared_ptr<Inode>;

  mutable cbl::Mutex mutex_;  // lock: both namespaces and all inodes
  std::map<std::string, InodeRef> live_ CBL_GUARDED_BY(mutex_);
  std::map<std::string, InodeRef> durable_ CBL_GUARDED_BY(mutex_);
};

/// POSIX-backed Fs rooted at a directory (created if absent). sync() is
/// fsync(2) on the file, sync_dir() is fsync on the root directory fd —
/// the discipline that makes the snapshot tmp+sync+rename+dirsync commit
/// sequence atomic on a real filesystem. Not internally locked: the
/// store types serialize their own file access, and distinct files are
/// independent syscalls.
class RealFs final : public Fs {
 public:
  explicit RealFs(std::string root);

  std::optional<Bytes> read(const std::string& path) override;
  bool write(const std::string& path, ByteView data) override;
  bool append(const std::string& path, ByteView data) override;
  bool sync(const std::string& path) override;
  bool rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) override;
  bool exists(const std::string& path) override;
  bool sync_dir() override;

  const std::string& root() const { return root_; }

 private:
  std::string full(const std::string& path) const;

  std::string root_;
};

}  // namespace cbl::store
