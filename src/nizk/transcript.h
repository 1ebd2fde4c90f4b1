// The Fiat-Shamir transcript: a concrete instantiation of the random
// oracle R : {0,1}* -> F of Fig. 5. Every absorbed item is length- and
// label-framed so distinct transcripts can never collide, and challenges
// are derived by wide reduction of SHA-512 output (unbiased mod l).
#pragma once

#include <string_view>

#include "common/bytes.h"
#include "ec/ristretto.h"
#include "hash/sha512.h"

namespace cbl::nizk {

class Transcript {
 public:
  explicit Transcript(std::string_view protocol_label);

  Transcript& absorb(std::string_view label, ByteView data);
  Transcript& absorb_point(std::string_view label, const ec::RistrettoPoint& p);
  Transcript& absorb_u64(std::string_view label, std::uint64_t v);

  /// Derives a challenge scalar; the transcript evolves, so successive
  /// challenges are independent.
  ec::Scalar challenge(std::string_view label);

 private:
  void frame(std::string_view label, ByteView data);

  hash::Sha512 state_;
};

}  // namespace cbl::nizk
