#include "obs/profile.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/json.hpp"

namespace iotls::obs {

namespace {

std::atomic<bool> g_profile_enabled{false};

/// The process tree. Threads merge into it only when their outermost zone
/// closes, so the mutex is taken once per top-level zone or pool task, not
/// on every zone enter and exit.
struct ProcessTree {
  std::mutex mutex;
  ProfileNode root;

  static ProcessTree& get() {
    static ProcessTree* tree = new ProcessTree();
    return *tree;
  }
};

/// The calling thread's private tree: its open zones, outermost first, and
/// where the tree merges into the process tree. Only the owning thread
/// touches it, so zone enter and exit take no lock. The map nodes are
/// stable, so `open` can point into `root`.
struct ThreadTree {
  std::vector<std::string> anchor;
  ProfileNode root;
  std::vector<ProfileNode*> open;
};

thread_local ThreadTree tl_tree;

/// The child `name` of `parent`, created on first visit.
ProfileNode& child_slot(ProfileNode* parent, std::string_view name) {
  auto it = parent->children.find(name);
  if (it == parent->children.end()) {
    ProfileNode node;
    node.name = std::string(name);
    it = parent->children.emplace(node.name, std::move(node)).first;
  }
  return it->second;
}

void merge_node(const ProfileNode& from, ProfileNode* into) {
  into->calls += from.calls;
  into->inclusive_ns += from.inclusive_ns;
  for (const auto& [name, child] : from.children) {
    merge_node(child, &child_slot(into, name));
  }
}

}  // namespace

bool profile_enabled() {
  return g_profile_enabled.load(std::memory_order_relaxed);
}

void set_profile_enabled(bool enabled) {
  g_profile_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t profile_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

void zone_enter(std::string_view name) {
  ThreadTree& tree = tl_tree;
  ProfileNode* parent = tree.open.empty() ? &tree.root : tree.open.back();
  tree.open.push_back(&child_slot(parent, name));
}

void zone_exit(std::uint64_t start_ns) {
  const std::uint64_t now = profile_now_ns();
  ThreadTree& tree = tl_tree;
  ProfileNode* node = tree.open.back();
  tree.open.pop_back();
  node->calls += 1;
  node->inclusive_ns += now > start_ns ? now - start_ns : 0;
  if (!tree.open.empty()) return;
  {
    ProcessTree& process = ProcessTree::get();
    std::lock_guard<std::mutex> lock(process.mutex);
    ProfileNode* into = &process.root;
    for (const std::string& name : tree.anchor) {
      into = &child_slot(into, name);
    }
    merge_node(tree.root, into);  // the private root itself holds nothing
  }
  tree.root.children.clear();
}

}  // namespace detail

std::vector<std::string> open_zone_path() {
  const ThreadTree& tree = tl_tree;
  std::vector<std::string> path = tree.anchor;
  for (const ProfileNode* node : tree.open) path.push_back(node->name);
  return path;
}

void anchor_thread_zones(std::vector<std::string> path) {
  tl_tree.anchor = std::move(path);
}

std::uint64_t ProfileNode::exclusive_ns() const {
  std::uint64_t children_ns = 0;
  for (const auto& [name, child] : children) {
    children_ns += child.inclusive_ns;
  }
  return inclusive_ns > children_ns ? inclusive_ns - children_ns : 0;
}

ProfileSnapshot profile_snapshot() {
  ProfileSnapshot snapshot;
  {
    ProcessTree& process = ProcessTree::get();
    std::lock_guard<std::mutex> lock(process.mutex);
    snapshot.root = process.root;
  }
  // The sentinel accumulates nothing itself; make its inclusive time the
  // sum of the top-level zones so percentages have a denominator.
  snapshot.root.name = "<root>";
  snapshot.root.calls = 1;
  snapshot.root.inclusive_ns = 0;
  for (const auto& [name, child] : snapshot.root.children) {
    snapshot.root.inclusive_ns += child.inclusive_ns;
  }
  return snapshot;
}

void profile_reset() {
  ProcessTree& process = ProcessTree::get();
  std::lock_guard<std::mutex> lock(process.mutex);
  process.root.children.clear();
}

namespace {

std::string format_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return std::string(buf);
}

void render_node(const ProfileNode& node, std::uint64_t total_ns, int depth,
                 std::string* out) {
  if (depth > 0) {
    const double pct =
        total_ns > 0 ? 100.0 * static_cast<double>(node.inclusive_ns) /
                           static_cast<double>(total_ns)
                     : 0.0;
    const double per_call =
        node.calls > 0 ? static_cast<double>(node.inclusive_ns) / 1e6 /
                             static_cast<double>(node.calls)
                       : 0.0;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%*s%-*s %10s ms incl %10s ms excl %9llu calls "
                  "%10.4f ms/call %5.1f%%\n",
                  depth * 2, "", std::max(1, 40 - depth * 2),
                  node.name.c_str(), format_ms(node.inclusive_ns).c_str(),
                  format_ms(node.exclusive_ns()).c_str(),
                  static_cast<unsigned long long>(node.calls), per_call,
                  pct);
    *out += line;
  }
  // Hot-first ordering; ties broken by name so the report is stable.
  std::vector<const ProfileNode*> kids;
  kids.reserve(node.children.size());
  for (const auto& [name, child] : node.children) kids.push_back(&child);
  std::sort(kids.begin(), kids.end(),
            [](const ProfileNode* a, const ProfileNode* b) {
              return a->inclusive_ns != b->inclusive_ns
                         ? a->inclusive_ns > b->inclusive_ns
                         : a->name < b->name;
            });
  for (const auto* child : kids) {
    render_node(*child, total_ns, depth + 1, out);
  }
}

}  // namespace

std::string render_profile(const ProfileSnapshot& snapshot) {
  std::string out = "Profile (total ";
  out.append(format_ms(snapshot.root.inclusive_ns)).append(" ms)\n");
  if (snapshot.root.children.empty()) {
    out += "  (no zones recorded — set IOTLS_PROFILE=1)\n";
    return out;
  }
  render_node(snapshot.root, snapshot.root.inclusive_ns, 0, &out);
  return out;
}

std::string profile_tree_to_json(const ProfileNode& node) {
  std::string out = "{\"name\":" + common::json_quote(node.name);
  out += ",\"calls\":" + std::to_string(node.calls);
  out += ",\"inclusive_ns\":" + std::to_string(node.inclusive_ns);
  out += ",\"exclusive_ns\":" + std::to_string(node.exclusive_ns());
  if (!node.children.empty()) {
    out += ",\"children\":[";
    bool first = true;
    for (const auto& [name, child] : node.children) {
      if (!first) out += ",";
      first = false;
      out += profile_tree_to_json(child);
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace iotls::obs
