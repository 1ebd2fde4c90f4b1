// wire:parser
#include "tlog/delta.h"

#include <algorithm>

#include "ec/codec.h"

namespace cbl::tlog {

namespace {

using Encoding = ec::RistrettoPoint::Encoding;

void write_body(ec::WireWriter& w, const EpochDelta& d) {
  w.u64(d.from_epoch).u64(d.to_epoch);
  w.raw(ByteView(d.base_bucket_root.data(), d.base_bucket_root.size()));
  w.raw(ByteView(d.post_bucket_root.data(), d.post_bucket_root.size()));
  w.u32(static_cast<std::uint32_t>(d.prefixes.size()));
  for (const auto& pd : d.prefixes) {
    w.u32(pd.prefix);
    w.u32(static_cast<std::uint32_t>(pd.added.size()));
    for (const auto& e : pd.added) w.raw(ByteView(e.data(), e.size()));
    w.u32(static_cast<std::uint32_t>(pd.removed.size()));
    for (const auto& e : pd.removed) w.raw(ByteView(e.data(), e.size()));
  }
}

/// Reads a count-prefixed sorted encoding list; latches failure on a
/// hostile count or any ordering violation (canonical form is strictly
/// increasing, so duplicates are rejected too).
std::vector<Encoding> read_entry_list(ec::WireReader& r) {
  std::vector<Encoding> out;
  const std::uint32_t count = r.u32();
  if (static_cast<std::size_t>(count) * sizeof(Encoding) > r.remaining()) {
    r.fail();
    return out;
  }
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Encoding e{};
    r.fill(std::span(e));
    if (!out.empty() && !(out.back() < e)) r.fail();
    out.push_back(e);
  }
  return out;
}

/// Merge-walk of two sorted entry lists into (added, removed).
void diff_entries(const std::vector<Encoding>& base,
                  const std::vector<Encoding>& post, PrefixDelta& out) {
  auto b = base.begin();
  auto p = post.begin();
  while (b != base.end() || p != post.end()) {
    if (b == base.end()) {
      out.added.push_back(*p++);
    } else if (p == post.end()) {
      out.removed.push_back(*b++);
    } else if (*b < *p) {
      out.removed.push_back(*b++);
    } else if (*p < *b) {
      out.added.push_back(*p++);
    } else {
      ++b;
      ++p;
    }
  }
}

}  // namespace

Bytes EpochDelta::signing_payload() const {
  ec::WireWriter w;
  write_body(w, *this);
  return w.take();
}

Digest EpochDelta::digest() const {
  hash::Sha256 h;
  h.update(kDeltaDigestDomain).update(signing_payload());
  return h.finalize();
}

Bytes EpochDelta::to_bytes() const {
  ec::WireWriter w;
  w.u8(kDeltaVersion);
  write_body(w, *this);
  w.raw(signature.to_bytes());
  return w.take();
}

std::optional<EpochDelta> EpochDelta::from_bytes(ByteView data) {
  ec::WireReader r(data);
  EpochDelta d;
  if (r.u8() != kDeltaVersion) r.fail();
  d.from_epoch = r.u64();
  d.to_epoch = r.u64();
  r.fill(std::span(d.base_bucket_root));
  r.fill(std::span(d.post_bucket_root));
  if (d.to_epoch <= d.from_epoch) r.fail();
  const std::uint32_t n_prefixes = r.u32();
  // Each prefix delta occupies at least 12 bytes (prefix + two counts).
  if (static_cast<std::size_t>(n_prefixes) * 12 > r.remaining()) {
    r.fail();
  } else {
    d.prefixes.reserve(n_prefixes);
    for (std::uint32_t i = 0; i < n_prefixes && r.ok(); ++i) {
      PrefixDelta pd;
      pd.prefix = r.u32();
      if (!d.prefixes.empty() && pd.prefix <= d.prefixes.back().prefix) {
        r.fail();
      }
      pd.added = read_entry_list(r);
      pd.removed = read_entry_list(r);
      if (pd.added.empty() && pd.removed.empty()) r.fail();  // no-op prefix
      d.prefixes.push_back(std::move(pd));
    }
  }
  d.signature = r.nested<nizk::Signature>(nizk::Signature::kWireSize,
                                          nizk::Signature::from_bytes);
  if (!r.finish()) return std::nullopt;
  return d;
}

EpochDelta sign_delta(const nizk::SigningKey& key, EpochDelta delta,
                      Rng& rng) {
  delta.signature =
      nizk::sign(key, delta.signing_payload(), kDeltaSigDomain, rng);
  return delta;
}

bool verify_delta(const ec::RistrettoPoint& provider_pk,
                  const EpochDelta& delta) {
  return nizk::verify_signature(provider_pk, delta.signing_payload(),
                                kDeltaSigDomain, delta.signature);
}

EpochDelta diff_buckets(const BucketMap& base, const BucketMap& post) {
  EpochDelta delta;
  static const std::vector<Encoding> kEmpty;
  auto b = base.begin();
  auto p = post.begin();
  // std::map iteration is already sorted by prefix, so the output is
  // canonical by construction.
  while (b != base.end() || p != post.end()) {
    PrefixDelta pd;
    if (b == base.end() || (p != post.end() && p->first < b->first)) {
      pd.prefix = p->first;
      diff_entries(kEmpty, p->second, pd);
      ++p;
    } else if (p == post.end() || b->first < p->first) {
      pd.prefix = b->first;
      diff_entries(b->second, kEmpty, pd);
      ++b;
    } else {
      pd.prefix = b->first;
      diff_entries(b->second, p->second, pd);
      ++b;
      ++p;
    }
    if (!pd.added.empty() || !pd.removed.empty()) {
      delta.prefixes.push_back(std::move(pd));
    }
  }
  return delta;
}

std::optional<BucketMap> fold_touched(const BucketMap& buckets,
                                      const EpochDelta& delta) {
  BucketMap touched;
  for (const auto& pd : delta.prefixes) {
    // A repeated prefix (only a hand-built delta can carry one) folds on
    // from its own earlier result.
    auto slot = touched.find(pd.prefix);
    if (slot == touched.end()) {
      const auto it = buckets.find(pd.prefix);
      slot = touched
                 .emplace(pd.prefix, it != buckets.end()
                                         ? it->second
                                         : std::vector<Encoding>{})
                 .first;
    }
    std::vector<Encoding>& entries = slot->second;
    for (const auto& e : pd.removed) {
      const auto pos = std::lower_bound(entries.begin(), entries.end(), e);
      if (pos == entries.end() || *pos != e) return std::nullopt;
      entries.erase(pos);
    }
    for (const auto& e : pd.added) {
      const auto pos = std::lower_bound(entries.begin(), entries.end(), e);
      if (pos != entries.end() && *pos == e) return std::nullopt;
      entries.insert(pos, e);
    }
  }
  return touched;
}

void exchange_buckets(BucketMap& buckets, BucketMap& touched) {
  for (auto& [prefix, entries] : touched) {
    auto it = buckets.find(prefix);
    if (it == buckets.end()) {
      if (entries.empty()) continue;
      it = buckets.emplace(prefix, std::vector<Encoding>{}).first;
    }
    it->second.swap(entries);
    if (it->second.empty()) buckets.erase(it);
  }
}

bool fold_delta(BucketMap& buckets, const EpochDelta& delta) {
  auto touched = fold_touched(buckets, delta);
  if (!touched) return false;
  exchange_buckets(buckets, *touched);
  return true;
}

Bytes encode_bucket_map(const BucketMap& buckets) {
  ec::WireWriter w;
  w.u32(static_cast<std::uint32_t>(buckets.size()));
  for (const auto& [prefix, entries] : buckets) {
    w.u32(prefix);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) w.raw(ByteView(e.data(), e.size()));
  }
  return w.take();
}

std::optional<BucketMap> parse_bucket_map(ByteView data) {
  ec::WireReader r(data);
  BucketMap buckets;
  const std::uint32_t n_buckets = r.u32();
  // Each bucket occupies at least 8 bytes (prefix + entry count).
  if (static_cast<std::size_t>(n_buckets) * 8 > r.remaining()) {
    r.fail();
  } else {
    std::uint32_t last_prefix = 0;
    bool have_last = false;
    for (std::uint32_t i = 0; i < n_buckets && r.ok(); ++i) {
      const std::uint32_t prefix = r.u32();
      if (have_last && prefix <= last_prefix) r.fail();
      last_prefix = prefix;
      have_last = true;
      std::vector<Encoding> entries = read_entry_list(r);
      if (entries.empty()) r.fail();  // canonical maps drop empty buckets
      buckets.emplace(prefix, std::move(entries));
    }
  }
  if (!r.finish()) return std::nullopt;
  return buckets;
}

}  // namespace cbl::tlog
