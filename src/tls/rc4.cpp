#include "tls/rc4.hpp"

#include <utility>

namespace iotls::tls {

Rc4::Rc4(common::BytesView key) {
  if (key.empty() || key.size() > 256) {
    throw common::CryptoError("rc4: key must be 1..256 bytes");
  }
  for (int i = 0; i < 256; ++i) s_[i] = static_cast<std::uint8_t>(i);
  std::uint8_t j = 0;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<std::uint8_t>(j + s_[i] + key[i % key.size()]);
    std::swap(s_[i], s_[j]);
  }
}

common::Bytes Rc4::apply(common::BytesView data) {
  common::Bytes out(data.begin(), data.end());
  for (auto& byte : out) {
    x_ = static_cast<std::uint8_t>(x_ + 1);
    y_ = static_cast<std::uint8_t>(y_ + s_[x_]);
    std::swap(s_[x_], s_[y_]);
    byte ^= s_[static_cast<std::uint8_t>(s_[x_] + s_[y_])];
  }
  return out;
}

}  // namespace iotls::tls
