// Profile-tree call counts for tests that pin work budgets.
#pragma once

#include <cstdint>
#include <string>

#include "obs/profile.hpp"

namespace iotls::obs {

/// Calls of the zone `name` anywhere in `node`'s subtree.
inline std::uint64_t zone_calls(const ProfileNode& node,
                                const std::string& name) {
  std::uint64_t calls = node.name == name ? node.calls : 0;
  for (const auto& [child_name, child] : node.children) {
    calls += zone_calls(child, name);
  }
  return calls;
}

/// Calls of the zone `op` inside every `zone` subtree of `node`.
inline std::uint64_t calls_within(const ProfileNode& node,
                                  const std::string& zone,
                                  const std::string& op) {
  if (node.name == zone) return zone_calls(node, op);
  std::uint64_t calls = 0;
  for (const auto& [child_name, child] : node.children) {
    calls += calls_within(child, zone, op);
  }
  return calls;
}

}  // namespace iotls::obs
