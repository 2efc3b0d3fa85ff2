// A trusted root store: the set of CA root certificates a TLS client
// accepts as chain anchors.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "x509/certificate.hpp"

namespace iotls::pki {

class RootStore {
 public:
  RootStore() = default;
  explicit RootStore(std::vector<x509::Certificate> roots)
      : roots_(std::move(roots)) {}

  void add(x509::Certificate root);

  [[nodiscard]] bool contains(const x509::DistinguishedName& subject) const;
  [[nodiscard]] const x509::Certificate* find(
      const x509::DistinguishedName& subject) const;

  [[nodiscard]] std::span<const x509::Certificate> roots() const {
    return roots_;
  }
  [[nodiscard]] std::size_t size() const { return roots_.size(); }
  [[nodiscard]] bool empty() const { return roots_.empty(); }

 private:
  std::vector<x509::Certificate> roots_;
};

}  // namespace iotls::pki
