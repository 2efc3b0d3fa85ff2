// RC4 stream cipher — genuinely implemented because RC4 suites are central
// to the study (Roku TV's downgrade target, the ≈60% RC4-advertising
// comparison with Kotzias et al.). Known-broken; present for protocol
// fidelity only.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace iotls::tls {

/// One RC4 keystream. Each call continues where the previous one stopped,
/// as a TLS connection's RC4 stream runs on across its records.
class Rc4 {
 public:
  /// Throws CryptoError unless the key is 1..256 bytes.
  explicit Rc4(common::BytesView key);

  /// XOR data with the next data.size() keystream bytes.
  common::Bytes apply(common::BytesView data);

 private:
  std::array<std::uint8_t, 256> s_{};
  std::uint8_t x_ = 0;
  std::uint8_t y_ = 0;
};

}  // namespace iotls::tls
