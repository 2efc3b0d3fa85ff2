// Finite-field Diffie-Hellman for the (EC)DHE ciphersuites.
//
// The paper classifies DHE/ECDHE identically (both provide perfect forward
// secrecy), so minitls models ECDHE groups as finite-field groups selected by
// a named-group id — the negotiation surface (supported_groups extension,
// suite classification) is exactly preserved. Documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/bignum.hpp"

namespace iotls::crypto {

/// Named DH groups mirroring TLS supported_groups code points.
enum class DhGroup : std::uint16_t {
  Secp256r1 = 0x0017,   // modelled as ffdhe, see header comment
  Secp384r1 = 0x0018,
  X25519 = 0x001d,
  Ffdhe2048 = 0x0100,
};

/// The group's prime and generator (fixed safe primes per group).
struct DhParams {
  BigUint p;
  BigUint g;
};

const DhParams& dh_params(DhGroup group);

struct DhKeyPair {
  BigUint secret;      // x
  common::Bytes pub;   // g^x mod p, fixed-width big-endian
};

DhKeyPair dh_generate(common::Rng& rng, DhGroup group);

/// Compute g^xy from own secret and peer public value.
common::Bytes dh_shared_secret(DhGroup group, const BigUint& secret,
                               common::BytesView peer_public);

}  // namespace iotls::crypto
