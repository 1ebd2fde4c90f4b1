#include "chaos/fault_fs.h"

#include <sstream>
#include <utility>

namespace cbl::chaos {

namespace {

std::array<std::uint8_t, 32> seed_key(std::uint64_t seed) {
  std::array<std::uint8_t, 32> key{};
  for (std::size_t i = 0; i < 8; ++i) {
    key[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  }
  // Domain-separate from FaultInjector streams built from the same seed.
  key[31] = 0xF5;
  return key;
}

}  // namespace

std::string FsFaultPlan::describe() const {
  std::ostringstream out;
  out << "fsplan=" << name << " seed=" << seed;
  if (short_write_prob > 0) out << " short=" << short_write_prob;
  if (torn_write_prob > 0) out << " torn=" << torn_write_prob;
  if (bit_flip_prob > 0) out << " flip=" << bit_flip_prob;
  if (fsync_lie_prob > 0) out << " fsync_lie=" << fsync_lie_prob;
  if (rename_fail_prob > 0) out << " rename_fail=" << rename_fail_prob;
  if (crash_at_op >= 0) out << " crash@op" << crash_at_op;
  return out.str();
}

FaultFs::FaultFs(store::Fs& inner, FsFaultPlan plan)
    : inner_(inner), plan_(std::move(plan)), rng_(seed_key(plan_.seed)) {
  auto& registry = obs::MetricsRegistry::global();
  const auto fault_counter = [&](const char* kind) {
    return &registry.counter("cbl_chaos_fs_faults_total", {{"kind", kind}},
                             "Faults injected into the store fs, by kind");
  };
  metrics_.short_write = fault_counter("short_write");
  metrics_.torn_write = fault_counter("torn_write");
  metrics_.bit_flip = fault_counter("bit_flip");
  metrics_.fsync_lie = fault_counter("fsync_lie");
  metrics_.rename_fail = fault_counter("rename_fail");
  metrics_.crash = fault_counter("crash");
}

bool FaultFs::roll(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return static_cast<double>(rng_.uniform(1'000'000)) / 1e6 < probability;
}

bool FaultFs::begin_op() {
  ++ops_;
  return !crashed_;
}

bool FaultFs::is_crash_now() const {
  return plan_.crash_at_op >= 0 &&
         static_cast<std::int64_t>(ops_) - 1 == plan_.crash_at_op;
}

void FaultFs::enter_crash() {
  crashed_ = true;
  metrics_.crash->inc();
}

std::optional<Bytes> FaultFs::read(const std::string& path) {
  return inner_.read(path);
}

bool FaultFs::apply_mutation(const std::string& path, ByteView data,
                             bool is_append) {
  std::size_t cut = data.size();
  bool report_ok = true;
  Bytes flipped;
  {
    MutexLock lock(mutex_);
    if (!begin_op()) return false;
    if (is_crash_now()) {
      // Power cut mid-write: an arbitrary prefix (possibly all, possibly
      // none) lands; the caller never sees the return value.
      cut = data.empty() ? 0 : rng_.uniform(data.size() + 1);
      report_ok = false;
      enter_crash();
    } else if (!data.empty() && roll(plan_.short_write_prob)) {
      // Honest partial failure: strict prefix applied, call says so.
      cut = rng_.uniform(data.size());
      report_ok = false;
      metrics_.short_write->inc();
    } else if (!data.empty() && roll(plan_.torn_write_prob)) {
      // Lying disk cache: strict prefix applied, call reports success.
      cut = rng_.uniform(data.size());
      metrics_.torn_write->inc();
    } else if (!data.empty() && roll(plan_.bit_flip_prob)) {
      // At-rest rot on the way in: everything lands, one bit wrong.
      flipped.assign(data.begin(), data.end());
      const std::size_t byte = rng_.uniform(flipped.size());
      flipped[byte] ^= static_cast<std::uint8_t>(1u << rng_.uniform(8));
      metrics_.bit_flip->inc();
    }
  }
  const ByteView out = flipped.empty() ? data.first(cut) : ByteView(flipped);
  const bool inner_ok =
      is_append ? inner_.append(path, out) : inner_.write(path, out);
  return inner_ok && report_ok;
}

bool FaultFs::write(const std::string& path, ByteView data) {
  return apply_mutation(path, data, /*is_append=*/false);
}

bool FaultFs::append(const std::string& path, ByteView data) {
  return apply_mutation(path, data, /*is_append=*/true);
}

bool FaultFs::sync(const std::string& path) {
  {
    MutexLock lock(mutex_);
    if (!begin_op()) return false;
    if (is_crash_now()) {
      enter_crash();  // power cut before the flush: nothing durable
      return false;
    }
    if (roll(plan_.fsync_lie_prob)) {
      // Write-cache betrayal: success reported, nothing made durable.
      metrics_.fsync_lie->inc();
      return true;
    }
  }
  return inner_.sync(path);
}

bool FaultFs::rename(const std::string& from, const std::string& to) {
  {
    MutexLock lock(mutex_);
    if (!begin_op()) return false;
    if (is_crash_now()) {
      enter_crash();  // power cut before the rename hit the namespace
      return false;
    }
    if (roll(plan_.rename_fail_prob)) {
      metrics_.rename_fail->inc();
      return false;
    }
  }
  return inner_.rename(from, to);
}

bool FaultFs::remove(const std::string& path) {
  {
    MutexLock lock(mutex_);
    if (!begin_op()) return false;
    if (is_crash_now()) {
      enter_crash();
      return false;
    }
  }
  return inner_.remove(path);
}

bool FaultFs::exists(const std::string& path) {
  return inner_.exists(path);
}

bool FaultFs::sync_dir() {
  {
    MutexLock lock(mutex_);
    if (!begin_op()) return false;
    if (is_crash_now()) {
      enter_crash();
      return false;
    }
    if (roll(plan_.fsync_lie_prob)) {
      metrics_.fsync_lie->inc();
      return true;
    }
  }
  return inner_.sync_dir();
}

bool FaultFs::crashed() const {
  MutexLock lock(mutex_);
  return crashed_;
}

std::uint64_t FaultFs::ops() const {
  MutexLock lock(mutex_);
  return ops_;
}

}  // namespace cbl::chaos
