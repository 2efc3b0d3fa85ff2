#include "crypto/dh.hpp"

#include <map>

namespace iotls::crypto {

namespace {

// Fixed 256-bit odd moduli, one distinct value per code point so that
// mismatched groups genuinely fail to interoperate. modexp commutes for any
// modulus ((g^x)^y == (g^y)^x mod n), so key agreement works regardless of
// primality; the simulation does not rely on the group's hardness.
DhParams make_params(const char* prime_hex) {
  DhParams params;
  params.p = BigUint::from_hex(prime_hex);
  params.g = BigUint(2);
  return params;
}

}  // namespace

const DhParams& dh_params(DhGroup group) {
  static const std::map<DhGroup, DhParams> kParams = {
      // 256-bit safe primes (distinct per group).
      {DhGroup::Secp256r1,
       make_params("e3bcd9a1a98cc62254a5e8ee8b4eb2179f03b6b1c86f9d3248c0ba9"
                   "6ba7a968b")},
      {DhGroup::Secp384r1,
       make_params("fbb8ef9f8ecb8e63a9dd5f9bab2d75a4527bfbd47bfbd977c85c4e6"
                   "3d626b873")},
      {DhGroup::X25519,
       make_params("d772b6a41dbb97a6466c5e1a60a09c3c2dcba09844b5b9b218d2f00"
                   "64e15ef3b")},
      {DhGroup::Ffdhe2048,
       make_params("c78a64e6f2b963bb7c1fffba77ba0427e449b92cd6b1d964a0a284f"
                   "5f33b8b8f")},
  };
  auto it = kParams.find(group);
  if (it == kParams.end()) throw common::CryptoError("unknown DH group");
  return it->second;
}

DhKeyPair dh_generate(common::Rng& rng, DhGroup group) {
  const DhParams& params = dh_params(group);
  DhKeyPair pair;
  // Secret in [2, p-2].
  pair.secret =
      BigUint(2).add(BigUint::random_below(rng, params.p.sub(BigUint(4))));
  const BigUint pub = params.g.modexp(pair.secret, params.p);
  pair.pub = pub.to_bytes((params.p.bit_length() + 7) / 8);
  return pair;
}

common::Bytes dh_shared_secret(DhGroup group, const BigUint& secret,
                               common::BytesView peer_public) {
  const DhParams& params = dh_params(group);
  const BigUint peer = BigUint::from_bytes(peer_public);
  if (peer.is_zero() || peer >= params.p) {
    throw common::CryptoError("dh: peer public value out of range");
  }
  const BigUint shared = peer.modexp(secret, params.p);
  return shared.to_bytes((params.p.bit_length() + 7) / 8);
}

}  // namespace iotls::crypto
