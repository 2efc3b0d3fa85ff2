#include "pki/root_store.hpp"

#include <algorithm>

namespace iotls::pki {

void RootStore::add(x509::Certificate root) {
  if (!contains(root.tbs.subject)) roots_.push_back(std::move(root));
}

bool RootStore::contains(const x509::DistinguishedName& subject) const {
  return find(subject) != nullptr;
}

const x509::Certificate* RootStore::find(
    const x509::DistinguishedName& subject) const {
  const auto it = std::find_if(
      roots_.begin(), roots_.end(),
      [&](const x509::Certificate& c) { return c.tbs.subject == subject; });
  return it == roots_.end() ? nullptr : &*it;
}

}  // namespace iotls::pki
