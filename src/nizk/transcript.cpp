#include "nizk/transcript.h"

namespace cbl::nizk {

Transcript::Transcript(std::string_view protocol_label) {
  frame("protocol", to_bytes(protocol_label));
}

void Transcript::frame(std::string_view label, ByteView data) {
  std::uint8_t len[8];
  store_le64(len, label.size());
  state_.update(ByteView(len, 8)).update(label);
  store_le64(len, data.size());
  state_.update(ByteView(len, 8)).update(data);
}

Transcript& Transcript::absorb(std::string_view label, ByteView data) {
  frame(label, data);
  return *this;
}

Transcript& Transcript::absorb_point(std::string_view label,
                                     const ec::RistrettoPoint& p) {
  const auto enc = p.encode();
  frame(label, ByteView(enc.data(), enc.size()));
  return *this;
}

Transcript& Transcript::absorb_u64(std::string_view label, std::uint64_t v) {
  std::uint8_t enc[8];
  store_le64(enc, v);
  frame(label, ByteView(enc, 8));
  return *this;
}

ec::Scalar Transcript::challenge(std::string_view label) {
  // Fork the state to produce output, then absorb the fact that a
  // challenge was drawn so later challenges differ.
  hash::Sha512 fork = state_;
  fork.update("challenge/").update(label);
  const auto digest = fork.finalize();
  frame("challenge-drawn", to_bytes(label));
  return ec::Scalar::from_bytes_wide(digest);
}

}  // namespace cbl::nizk
