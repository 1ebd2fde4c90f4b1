#include "ec/modinv.h"

#include "common/ct.h"

namespace cbl::ec {

namespace {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using i128 = __int128;

constexpr u64 kM62 = InvModulus::kM62;

// A signed integer sum v[i] * 2^(62 i). Between rounds every limb but the
// top one is in [0, 2^62); the top limb carries the sign.
struct Signed62 {
  std::array<i64, 5> v;
};

// The transition matrix of 59 divsteps, scaled by 2^62:
// [f', g'] = [[u, v], [q, r]] * [f, g] / 2^62.
struct Trans2x2 {
  i64 u, v, q, r;
};

// 59 divsteps on the low 64 bits of f and g (all they depend on), with
// zeta = -(delta + 1/2). Every step runs the same instructions: the two
// conditions (zeta < 0, g odd) become masks, passed through ct_barrier_u64
// so the optimizer cannot turn them back into branches. The matrix starts
// at 8 = 2^3 times the identity and each step doubles its scale (u, v
// shift left where g shifts right), ending at 2^62; its entries are
// signed in [-2^62, 2^62] but kept in u64 so the shifts stay defined.
i64 divsteps_59(i64 zeta, u64 f, u64 g, Trans2x2& t) noexcept {
  u64 u = 8, v = 0, q = 0, r = 8;
  for (int i = 3; i < 62; ++i) {
    const u64 neg = ct_barrier_u64(static_cast<u64>(zeta >> 63));
    const u64 odd = ct_barrier_u64(0 - (g & 1));
    // g += (zeta < 0 ? -f : f) when g is odd; likewise q, r from u, v.
    g += ((f ^ neg) - neg) & odd;
    q += ((u ^ neg) - neg) & odd;
    r += ((v ^ neg) - neg) & odd;
    // When both held, swap roles: zeta -> -zeta - 2 and f += g (the new g
    // is old g - f, so f + g is the old g); otherwise zeta -> zeta - 1.
    const u64 swap = neg & odd;
    zeta = (zeta ^ static_cast<i64>(swap)) - 1;
    f += g & swap;
    u += q & swap;
    v += r & swap;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = Trans2x2{static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
               static_cast<i64>(r)};
  return zeta;
}

// [d, e] <- (t * [d, e] + m * [md, me]) / 2^62, with md, me chosen so the
// division is exact. d and e stay in (-2m, m) from round to round.
void update_de(Signed62& d, Signed62& e, const Trans2x2& t,
               const InvModulus& m) noexcept {
  const i64 u = t.u, v = t.v, q = t.q, r = t.r;
  // Start from the multiples of m that bring a negative d or e back up,
  const i64 sd = d.v[4] >> 63, se = e.v[4] >> 63;
  i64 md = (u & sd) + (v & se);
  i64 me = (q & sd) + (r & se);
  i128 cd = static_cast<i128>(u) * d.v[0] + static_cast<i128>(v) * e.v[0];
  i128 ce = static_cast<i128>(q) * d.v[0] + static_cast<i128>(r) * e.v[0];
  // then correct them so the low 62 bits of the sum vanish.
  md -= static_cast<i64>((m.inv62 * static_cast<u64>(cd) +
                          static_cast<u64>(md)) & kM62);
  me -= static_cast<i64>((m.inv62 * static_cast<u64>(ce) +
                          static_cast<u64>(me)) & kM62);
  cd += static_cast<i128>(m.limbs[0]) * md;
  ce += static_cast<i128>(m.limbs[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (std::size_t i = 1; i < 5; ++i) {
    cd += static_cast<i128>(u) * d.v[i] + static_cast<i128>(v) * e.v[i] +
          static_cast<i128>(m.limbs[i]) * md;
    ce += static_cast<i128>(q) * d.v[i] + static_cast<i128>(r) * e.v[i] +
          static_cast<i128>(m.limbs[i]) * me;
    d.v[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kM62);
    e.v[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<i64>(cd);
  e.v[4] = static_cast<i64>(ce);
}

// [f, g] <- t * [f, g] / 2^62; the divsteps made the low 62 bits zero.
void update_fg(Signed62& f, Signed62& g, const Trans2x2& t) noexcept {
  const i64 u = t.u, v = t.v, q = t.q, r = t.r;
  i128 cf = static_cast<i128>(u) * f.v[0] + static_cast<i128>(v) * g.v[0];
  i128 cg = static_cast<i128>(q) * f.v[0] + static_cast<i128>(r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (std::size_t i = 1; i < 5; ++i) {
    cf += static_cast<i128>(u) * f.v[i] + static_cast<i128>(v) * g.v[i];
    cg += static_cast<i128>(q) * f.v[i] + static_cast<i128>(r) * g.v[i];
    f.v[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kM62);
    g.v[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<i64>(cf);
  g.v[4] = static_cast<i64>(cg);
}

// Carries limbs 0..3 back into [0, 2^62); the arithmetic shifts move a
// negative limb's borrow up, so the top limb ends with the sign.
void carry(Signed62& a) noexcept {
  for (std::size_t i = 0; i < 4; ++i) {
    a.v[i + 1] += a.v[i] >> 62;
    a.v[i] &= static_cast<i64>(kM62);
  }
}

// d in (-2m, m) -> (sign < 0 ? -d : d) mod m in [0, m), by masked adds of
// m. On entry limbs 0..3 are in [0, 2^62), so the top limb has d's sign.
void normalize(Signed62& d, i64 sign, const InvModulus& m) noexcept {
  const i64 add_m = d.v[4] >> 63;
  const i64 negate = sign >> 63;
  for (std::size_t i = 0; i < 5; ++i) {
    d.v[i] = ((d.v[i] + (m.limbs[i] & add_m)) ^ negate) - negate;
  }
  carry(d);  // now in (-m, m)
  const i64 add_m_again = d.v[4] >> 63;
  for (std::size_t i = 0; i < 5; ++i) d.v[i] += m.limbs[i] & add_m_again;
  carry(d);
}

}  // namespace

std::array<u64, 4> mod_invert(const std::array<u64, 4>& x,
                              const InvModulus& m) noexcept {
  // d = 0, e = 1, f = m, g = x, delta = 1/2. Each round keeps
  // d * x = f and e * x = g (mod m); after 590 divsteps g = 0 and
  // f = +-gcd(m, x) = +-1 (for x != 0), so +-d is the inverse. For x = 0,
  // g stays 0, d stays 0, and the result is 0.
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f{m.limbs};
  Signed62 g{InvModulus::limbs62(x)};
  i64 zeta = -1;
  for (int round = 0; round < 10; ++round) {
    Trans2x2 t;
    zeta = divsteps_59(zeta, static_cast<u64>(f.v[0]),
                       static_cast<u64>(g.v[0]), t);
    update_de(d, e, t, m);
    update_fg(f, g, t);
  }
  normalize(d, f.v[4], m);

  const auto limb = [&d](std::size_t i) { return static_cast<u64>(d.v[i]); };
  const std::array<u64, 4> out = {limb(0) | limb(1) << 62,
                                  limb(1) >> 2 | limb(2) << 60,
                                  limb(2) >> 4 | limb(3) << 58,
                                  limb(3) >> 6 | limb(4) << 56};
  // Every intermediate is entangled with x, which is usually secret.
  secure_wipe(&d, sizeof d);
  secure_wipe(&e, sizeof e);
  secure_wipe(&f, sizeof f);
  secure_wipe(&g, sizeof g);
  return out;
}

}  // namespace cbl::ec
