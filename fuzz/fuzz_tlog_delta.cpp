// Decode surface: tlog/delta.h — the signed epoch-delta codec and the
// full bucket-map download parser. Accepted messages must be canonical
// (re-encode == input); folding any accepted delta into a bucket mirror
// must either succeed or leave the mirror bit-identical (a rejected fold
// never corrupts cached state), and a successful fold must bring a kept
// BucketTree, updated over the touched buckets, to the root of a tree
// built from scratch over the folded mirror.
#include <algorithm>
#include <vector>

#include "fuzz/harness.h"
#include "fuzz/tlog_delta_base.h"
#include "tlog/log.h"

using namespace cbl;

CBL_FUZZ_TARGET(cbl_fuzz_tlog_delta) {
  const ByteView input(data, size);

  if (const auto delta = tlog::EpochDelta::from_bytes(input)) {
    const Bytes re = delta->to_bytes();
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
    static const tlog::BucketMap base = fuzz::tlog_delta_base_mirror();
    static const tlog::BucketTree base_tree(base);
    tlog::BucketMap mirror = base;
    if (tlog::fold_delta(mirror, *delta)) {
      std::vector<std::uint32_t> changed;
      for (const auto& pd : delta->prefixes) changed.push_back(pd.prefix);
      tlog::BucketTree kept = base_tree;
      kept.update(mirror, changed);
      CBL_FUZZ_CHECK(kept.root() == tlog::BucketTree(mirror).root());
    } else {
      CBL_FUZZ_CHECK(mirror == base);  // rejected folds must not corrupt
    }
  }

  if (const auto buckets = tlog::parse_bucket_map(input)) {
    const Bytes re = tlog::encode_bucket_map(*buckets);
    CBL_FUZZ_CHECK(re.size() == input.size() &&
                   std::equal(re.begin(), re.end(), input.begin()));
    // An accepted map must diff cleanly against itself (empty delta) and
    // against the empty map (pure additions that fold back to it).
    const auto self = tlog::diff_buckets(*buckets, *buckets);
    CBL_FUZZ_CHECK(self.prefixes.empty());
    auto grown = tlog::diff_buckets(tlog::BucketMap{}, *buckets);
    tlog::BucketMap rebuilt;
    CBL_FUZZ_CHECK(tlog::fold_delta(rebuilt, grown));
    CBL_FUZZ_CHECK(rebuilt == *buckets);
  }
  return 0;
}
