#include "store/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace cbl::store {

// ------------------------------------------------------------------ MemFs

std::optional<Bytes> MemFs::read(const std::string& path) {
  MutexLock lock(mutex_);
  const auto it = live_.find(path);
  if (it == live_.end()) return std::nullopt;
  return it->second->live;
}

bool MemFs::write(const std::string& path, ByteView data) {
  MutexLock lock(mutex_);
  auto& inode = live_[path];
  if (!inode) inode = std::make_shared<Inode>();
  inode->live.assign(data.begin(), data.end());
  return true;
}

bool MemFs::append(const std::string& path, ByteView data) {
  MutexLock lock(mutex_);
  auto& inode = live_[path];
  if (!inode) inode = std::make_shared<Inode>();
  inode->live.insert(inode->live.end(), data.begin(), data.end());
  return true;
}

bool MemFs::sync(const std::string& path) {
  MutexLock lock(mutex_);
  const auto it = live_.find(path);
  if (it == live_.end()) return false;
  it->second->durable = it->second->live;
  it->second->content_durable = true;
  // fsync also persists the file's own directory entry (the practical
  // ext4 contract the journal relies on after creating its file).
  durable_[path] = it->second;
  return true;
}

bool MemFs::rename(const std::string& from, const std::string& to) {
  MutexLock lock(mutex_);
  const auto it = live_.find(from);
  if (it == live_.end()) return false;
  live_[to] = it->second;
  live_.erase(it);
  return true;
}

bool MemFs::remove(const std::string& path) {
  MutexLock lock(mutex_);
  return live_.erase(path) > 0;
}

bool MemFs::exists(const std::string& path) {
  MutexLock lock(mutex_);
  return live_.contains(path);
}

bool MemFs::sync_dir() {
  MutexLock lock(mutex_);
  // Directory fsync persists the namespace exactly as it stands —
  // renames, removals, creations — but never file CONTENT: an inode
  // whose bytes were never fsynced still reverts to its last durable
  // image (empty for a never-synced file) at crash.
  durable_.clear();
  for (const auto& [path, inode] : live_) durable_[path] = inode;
  return true;
}

void MemFs::crash() {
  MutexLock lock(mutex_);
  // Rebuild per-name inodes from the durable images. Copying (rather
  // than re-sharing) matters when two durable names alias one inode
  // (sync of both the tmp and the renamed name): post-crash they are
  // independent files, exactly as on a real disk.
  std::map<std::string, InodeRef> fresh;
  for (const auto& [path, inode] : durable_) {
    auto copy = std::make_shared<Inode>();
    copy->durable = inode->durable;
    copy->content_durable = inode->content_durable;
    copy->live = copy->content_durable ? copy->durable : Bytes{};
    fresh[path] = copy;
  }
  live_ = fresh;
  durable_ = std::move(fresh);
}

// ----------------------------------------------------------------- RealFs

RealFs::RealFs(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
}

std::string RealFs::full(const std::string& path) const {
  return root_ + "/" + path;
}

std::optional<Bytes> RealFs::read(const std::string& path) {
  const int fd = ::open(full(path).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  Bytes out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

namespace {

bool write_all(int fd, ByteView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool RealFs::write(const std::string& path, ByteView data) {
  const int fd = ::open(full(path).c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, data);
  return ::close(fd) == 0 && ok;
}

bool RealFs::append(const std::string& path, ByteView data) {
  const int fd = ::open(full(path).c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, data);
  return ::close(fd) == 0 && ok;
}

bool RealFs::sync(const std::string& path) {
  const int fd = ::open(full(path).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool RealFs::rename(const std::string& from, const std::string& to) {
  return std::rename(full(from).c_str(), full(to).c_str()) == 0;
}

bool RealFs::remove(const std::string& path) {
  return ::unlink(full(path).c_str()) == 0;
}

bool RealFs::exists(const std::string& path) {
  struct stat st{};
  return ::stat(full(path).c_str(), &st) == 0;
}

bool RealFs::sync_dir() {
  const int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace cbl::store
