// wire:parser
#include "blocklist/address.h"

#include <algorithm>

#include "hash/keccak.h"
#include "hash/sha256.h"

namespace cbl::blocklist {

const std::string_view kBitcoinAlphabet =
    "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";
const std::string_view kRippleAlphabet =
    "rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz";

std::string chain_name(Chain chain) {
  switch (chain) {
    case Chain::kBitcoin: return "bitcoin";
    case Chain::kEthereum: return "ethereum";
    case Chain::kRipple: return "ripple";
    case Chain::kBitcoinSegwit: return "bitcoin-segwit";
  }
  return "unknown";
}

std::string base58_encode(ByteView data, std::string_view alphabet) {
  // Count leading zero bytes; they map to leading alphabet[0] characters.
  std::size_t zeros = 0;
  while (zeros < data.size() && data[zeros] == 0) ++zeros;

  // Repeated division of the big integer by 58.
  std::vector<std::uint8_t> digits;  // base-58, little endian
  for (std::size_t i = zeros; i < data.size(); ++i) {
    std::uint32_t carry = data[i];
    for (auto& d : digits) {
      const std::uint32_t v = (static_cast<std::uint32_t>(d) << 8) + carry;
      d = static_cast<std::uint8_t>(v % 58);
      carry = v / 58;
    }
    while (carry > 0) {
      digits.push_back(static_cast<std::uint8_t>(carry % 58));
      carry /= 58;
    }
  }

  std::string out(zeros, alphabet[0]);
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    out.push_back(alphabet[*it]);
  }
  return out;
}

std::optional<Bytes> base58_decode(std::string_view text,
                                   std::string_view alphabet) {
  std::size_t zeros = 0;
  while (zeros < text.size() && text[zeros] == alphabet[0]) ++zeros;

  Bytes bytes;  // big integer, little endian
  for (std::size_t i = zeros; i < text.size(); ++i) {
    const auto pos = alphabet.find(text[i]);
    if (pos == std::string_view::npos) return std::nullopt;
    std::uint32_t carry = static_cast<std::uint32_t>(pos);
    for (auto& b : bytes) {
      const std::uint32_t v = static_cast<std::uint32_t>(b) * 58 + carry;
      b = static_cast<std::uint8_t>(v & 0xff);
      carry = v >> 8;
    }
    while (carry > 0) {
      bytes.push_back(static_cast<std::uint8_t>(carry & 0xff));
      carry >>= 8;
    }
  }

  Bytes out(zeros, 0);
  out.insert(out.end(), bytes.rbegin(), bytes.rend());
  return out;
}

namespace {

Bytes with_checksum(std::uint8_t version,
                    const std::array<std::uint8_t, 20>& payload) {
  // version || payload || first 4 bytes of SHA256d(version || payload),
  // written into a buffer sized up front.
  Bytes data(25);
  data[0] = version;
  std::copy(payload.begin(), payload.end(), data.begin() + 1);
  const auto first = hash::Sha256::digest(ByteView(data.data(), 21));
  const auto second = hash::Sha256::digest(ByteView(first.data(), first.size()));
  std::copy(second.begin(), second.begin() + 4, data.begin() + 21);
  return data;
}

bool checksum_valid(const Bytes& decoded) {
  if (decoded.size() != 25) return false;
  const ByteView body(decoded.data(), 21);
  const auto first = hash::Sha256::digest(body);
  const auto second = hash::Sha256::digest(ByteView(first.data(), first.size()));
  return std::equal(second.begin(), second.begin() + 4, decoded.begin() + 21);
}

constexpr char kHexLower[] = "0123456789abcdef";

}  // namespace

std::string make_bitcoin_address(const std::array<std::uint8_t, 20>& payload) {
  return base58_encode(with_checksum(0x00, payload), kBitcoinAlphabet);
}

bool validate_bitcoin_address(std::string_view address) {
  const auto decoded = base58_decode(address, kBitcoinAlphabet);
  return decoded && checksum_valid(*decoded) && (*decoded)[0] == 0x00;
}

std::string make_ethereum_address(const std::array<std::uint8_t, 20>& payload) {
  // EIP-55: capitalize hex digit i iff nibble i of keccak256(lowercase
  // address without 0x) is >= 8.
  std::string lower;
  lower.reserve(40);
  for (std::uint8_t b : payload) {
    lower.push_back(kHexLower[b >> 4]);
    lower.push_back(kHexLower[b & 0x0f]);
  }
  const auto digest = hash::Keccak256::digest(lower);
  std::string out = "0x";
  for (std::size_t i = 0; i < 40; ++i) {
    const std::uint8_t nibble =
        i % 2 == 0 ? digest[i / 2] >> 4 : digest[i / 2] & 0x0f;
    char c = lower[i];
    if (c >= 'a' && c <= 'f' && nibble >= 8) {
      c = static_cast<char>(c - 'a' + 'A');
    }
    out.push_back(c);
  }
  return out;
}

bool validate_ethereum_address(std::string_view address) {
  if (address.size() != 42 || address.substr(0, 2) != "0x") return false;
  std::array<std::uint8_t, 20> payload{};
  for (std::size_t i = 0; i < 40; ++i) {
    const char c = address[2 + i];
    int nibble;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') nibble = c - 'A' + 10;
    else return false;
    if (i % 2 == 0) payload[i / 2] = static_cast<std::uint8_t>(nibble << 4);
    else payload[i / 2] |= static_cast<std::uint8_t>(nibble);
  }
  return make_ethereum_address(payload) == address;
}

std::string make_ripple_address(const std::array<std::uint8_t, 20>& payload) {
  return base58_encode(with_checksum(0x00, payload), kRippleAlphabet);
}

bool validate_ripple_address(std::string_view address) {
  const auto decoded = base58_decode(address, kRippleAlphabet);
  return decoded && checksum_valid(*decoded) && (*decoded)[0] == 0x00;
}

std::string random_address(Chain chain, Rng& rng) {
  std::array<std::uint8_t, 20> payload;
  rng.fill(payload.data(), payload.size());
  switch (chain) {
    case Chain::kBitcoin: return make_bitcoin_address(payload);
    case Chain::kEthereum: return make_ethereum_address(payload);
    case Chain::kRipple: return make_ripple_address(payload);
    case Chain::kBitcoinSegwit: return make_segwit_address(payload);
  }
  return {};
}

std::optional<Chain> detect_chain(std::string_view address) {
  if (validate_ethereum_address(address)) return Chain::kEthereum;
  if (validate_segwit_address(address)) return Chain::kBitcoinSegwit;
  if (validate_bitcoin_address(address)) return Chain::kBitcoin;
  if (validate_ripple_address(address)) return Chain::kRipple;
  return std::nullopt;
}

// ----------------------------------------------------------------- bech32

namespace {

constexpr std::string_view kBech32Charset =
    "qpzry9x8gf2tvdw0s3jn54khce6mua7l";

std::uint32_t bech32_polymod(const std::vector<std::uint8_t>& values) {
  constexpr std::uint32_t kGen[5] = {0x3b6a57b2, 0x26508e6d, 0x1ea119fa,
                                     0x3d4233dd, 0x2a1462b3};
  std::uint32_t chk = 1;
  for (const std::uint8_t v : values) {
    const std::uint8_t top = static_cast<std::uint8_t>(chk >> 25);
    chk = (chk & 0x1ffffff) << 5 ^ v;
    for (int i = 0; i < 5; ++i) {
      if ((top >> i) & 1) chk ^= kGen[i];
    }
  }
  return chk;
}

std::vector<std::uint8_t> bech32_hrp_expand(std::string_view hrp) {
  std::vector<std::uint8_t> out;
  for (const char c : hrp) out.push_back(static_cast<std::uint8_t>(c) >> 5);
  out.push_back(0);
  for (const char c : hrp) out.push_back(static_cast<std::uint8_t>(c) & 31);
  return out;
}

// 8-bit -> 5-bit regrouping with padding (BIP-173 convertbits).
std::vector<std::uint8_t> to_base32(ByteView bytes) {
  std::vector<std::uint8_t> out;
  std::uint32_t acc = 0;
  int bits = 0;
  for (const std::uint8_t b : bytes) {
    acc = acc << 8 | b;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(static_cast<std::uint8_t>((acc >> bits) & 31));
    }
  }
  if (bits > 0) out.push_back(static_cast<std::uint8_t>((acc << (5 - bits)) & 31));
  return out;
}

std::optional<Bytes> from_base32(ByteView data5) {
  Bytes out;
  std::uint32_t acc = 0;
  int bits = 0;
  for (const std::uint8_t v : data5) {
    acc = acc << 5 | v;
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((acc >> bits) & 0xff));
    }
  }
  // Strict: padding must be < 5 bits and zero.
  if (bits >= 5 || ((acc << (8 - bits)) & 0xff) != 0) return std::nullopt;
  return out;
}

}  // namespace

std::string bech32_encode(std::string_view hrp,
                          const std::vector<std::uint8_t>& data5) {
  auto values = bech32_hrp_expand(hrp);
  values.insert(values.end(), data5.begin(), data5.end());
  values.insert(values.end(), 6, 0);
  const std::uint32_t polymod = bech32_polymod(values) ^ 1;

  std::string out(hrp);
  out.push_back('1');
  for (const std::uint8_t v : data5) out.push_back(kBech32Charset[v]);
  for (int i = 0; i < 6; ++i) {
    out.push_back(kBech32Charset[(polymod >> (5 * (5 - i))) & 31]);
  }
  return out;
}

std::optional<std::pair<std::string, std::vector<std::uint8_t>>> bech32_decode(
    std::string_view text) {
  if (text.size() < 8 || text.size() > 90) return std::nullopt;
  // Reject mixed case, then lowercase.
  bool has_lower = false, has_upper = false;
  std::string lowered(text);
  for (char& c : lowered) {
    if (c >= 'a' && c <= 'z') has_lower = true;
    if (c >= 'A' && c <= 'Z') {
      has_upper = true;
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  if (has_lower && has_upper) return std::nullopt;

  const auto sep = lowered.rfind('1');
  if (sep == std::string::npos || sep == 0 || sep + 7 > lowered.size()) {
    return std::nullopt;
  }
  const std::string hrp = lowered.substr(0, sep);
  std::vector<std::uint8_t> data5;
  for (std::size_t i = sep + 1; i < lowered.size(); ++i) {
    const auto pos = kBech32Charset.find(lowered[i]);
    if (pos == std::string_view::npos) return std::nullopt;
    data5.push_back(static_cast<std::uint8_t>(pos));
  }

  auto values = bech32_hrp_expand(hrp);
  values.insert(values.end(), data5.begin(), data5.end());
  if (bech32_polymod(values) != 1) return std::nullopt;

  data5.resize(data5.size() - 6);  // strip checksum
  return std::make_pair(hrp, data5);
}

std::string make_segwit_address(const std::array<std::uint8_t, 20>& payload) {
  std::vector<std::uint8_t> data5 = {0};  // witness version 0
  const auto program = to_base32(ByteView(payload.data(), payload.size()));
  data5.insert(data5.end(), program.begin(), program.end());
  return bech32_encode("bc", data5);
}

bool validate_segwit_address(std::string_view address) {
  const auto decoded = bech32_decode(address);
  if (!decoded || decoded->first != "bc") return false;
  const auto& data5 = decoded->second;
  if (data5.empty() || data5[0] != 0) return false;  // only v0 here
  const auto program = from_base32(ByteView(data5).subspan(1));
  // v0 programs are 20 (P2WPKH) or 32 (P2WSH) bytes.
  return program && (program->size() == 20 || program->size() == 32);
}

}  // namespace cbl::blocklist
