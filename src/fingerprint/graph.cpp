#include "fingerprint/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace iotls::fingerprint {

void SharingGraph::add_use(const std::string& client, NodeKind kind,
                           const Fingerprint& fp, bool dominant) {
  auto& info = clients_[client];
  info.kind = kind;
  info.hashes.insert(fp.hash);
  if (dominant) info.dominant_hashes.insert(fp.hash);
  fingerprints_[fp.hash] = fp;
  users_[fp.hash].insert(client);
}

std::vector<Fingerprint> SharingGraph::shared_fingerprints() const {
  std::vector<Fingerprint> out;
  for (const auto& [hash, users] : users_) {
    if (users.size() >= 2) out.push_back(fingerprints_.at(hash));
  }
  return out;
}

std::set<std::string> SharingGraph::sharing_partners(
    const std::string& client) const {
  std::set<std::string> out;
  const auto it = clients_.find(client);
  if (it == clients_.end()) return out;
  for (const auto& hash : it->second.hashes) {
    for (const auto& user : users_.at(hash)) {
      if (user != client) out.insert(user);
    }
  }
  return out;
}

std::vector<std::string> SharingGraph::clients_of(
    const Fingerprint& fp) const {
  const auto it = users_.find(fp.hash);
  if (it == users_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

NodeKind SharingGraph::kind_of(const std::string& client) const {
  const auto it = clients_.find(client);
  if (it == clients_.end()) throw std::out_of_range("unknown client");
  return it->second.kind;
}

bool SharingGraph::is_dominant(const std::string& client,
                               const Fingerprint& fp) const {
  const auto it = clients_.find(client);
  return it != clients_.end() && it->second.dominant_hashes.count(fp.hash) > 0;
}

std::vector<std::set<std::string>> SharingGraph::clusters() const {
  // Union-find over clients via shared fingerprints.
  std::map<std::string, std::string> parent;
  for (const auto& [name, info] : clients_) parent[name] = name;

  std::function<std::string(const std::string&)> find =
      [&](const std::string& x) -> std::string {
    if (parent[x] == x) return x;
    parent[x] = find(parent[x]);
    return parent[x];
  };

  for (const auto& [hash, users] : users_) {
    if (users.size() < 2) continue;
    const std::string& first = *users.begin();
    for (const auto& user : users) {
      parent[find(user)] = find(first);
    }
  }

  std::map<std::string, std::set<std::string>> groups;
  for (const auto& [name, info] : clients_) groups[find(name)].insert(name);

  std::vector<std::set<std::string>> out;
  for (auto& [root, members] : groups) {
    if (members.size() >= 2) out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  return out;
}

}  // namespace iotls::fingerprint
