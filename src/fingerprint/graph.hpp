// The device/application ↔ fingerprint sharing graph (Fig 5).
//
// Nodes are clients (devices from the testbed, applications from the
// reference database) and fingerprints; an edge means the client was
// observed using the fingerprint. Only fingerprints shared by ≥2 clients
// are kept (the figure drops non-shared edges for readability).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.hpp"

namespace iotls::fingerprint {

enum class NodeKind { Device, Application };

class SharingGraph {
 public:
  /// Record that `client` used `fp`. `dominant` marks the client's
  /// most-used fingerprint (thick edge in Fig 5).
  void add_use(const std::string& client, NodeKind kind,
               const Fingerprint& fp, bool dominant = false);

  /// Fingerprints used by ≥2 distinct clients.
  [[nodiscard]] std::vector<Fingerprint> shared_fingerprints() const;

  /// Clients sharing at least one fingerprint with `client`.
  [[nodiscard]] std::set<std::string> sharing_partners(
      const std::string& client) const;

  /// All clients that used `fp`.
  [[nodiscard]] std::vector<std::string> clients_of(
      const Fingerprint& fp) const;

  [[nodiscard]] NodeKind kind_of(const std::string& client) const;
  [[nodiscard]] bool is_dominant(const std::string& client,
                                 const Fingerprint& fp) const;

  /// Connected components over clients, using only shared fingerprints —
  /// the clusters Fig 5 labels (Amazon, Apple, Microsoft, OpenSSL, ...).
  [[nodiscard]] std::vector<std::set<std::string>> clusters() const;

 private:
  struct ClientInfo {
    NodeKind kind = NodeKind::Device;
    std::set<std::string> hashes;
    std::set<std::string> dominant_hashes;
  };
  std::map<std::string, ClientInfo> clients_;
  std::map<std::string, Fingerprint> fingerprints_;          // hash → fp
  std::map<std::string, std::set<std::string>> users_;       // hash → clients
};

}  // namespace iotls::fingerprint
