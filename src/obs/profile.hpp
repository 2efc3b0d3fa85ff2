// Hierarchical wall-clock profiler: the third observability pillar next to
// the flight recorder (trace.hpp) and the metrics registry (metrics.hpp).
//
// Instrumented code opens a scoped ProfileZone; nested zones build a call
// tree (zone name -> inclusive ns, call count, children). The process keeps
// one tree. Each thread builds a private call tree without a lock and, when
// its outermost zone closes, merges it into the process tree under one
// mutex at the thread's anchor path, then frees it. An ordinary thread's
// anchor is the root; a parallel_for worker's is the caller's open zone
// path, ending in pool/fan_out, so a fan-out's work is credited to the zone
// that issued it. A fan-out's children sum CPU time over its workers, so
// they can exceed the wall time of their pool/fan_out parent.
//
// Cost model: with profiling disabled (the default) a zone is one relaxed
// atomic load and a branch — no allocation, no lock, no clock read. The
// IOTLS_PROFILE knob (strict env parsing at the CLI surface) flips the
// global switch.
//
// Determinism contract: the profiler is wall-clock-dependent by nature and
// is an OPERATOR surface only, like metrics — never an input to any table,
// figure, or trace. Tables and figures are byte-identical whether
// profiling is on or off (the obs determinism suites enforce this, and the
// timing-hygiene lint rule keeps raw clock reads confined to src/obs/ and
// bench/ so the boundary cannot erode).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace iotls::obs {

/// Global profiler switch (IOTLS_PROFILE at the CLI surface).
bool profile_enabled();
void set_profile_enabled(bool enabled);

/// Monotonic wall clock in nanoseconds — the sanctioned raw-clock read for
/// operator-surface timing (everything outside bench/ routes through it;
/// see the timing-hygiene lint rule).
std::uint64_t profile_now_ns();

/// Wall-clock stopwatch over profile_now_ns(), for operator-surface timing
/// reports (e.g. IotlsStudy's per-experiment table).
class WallTimer {
 public:
  WallTimer() : start_ns_(profile_now_ns()) {}
  [[nodiscard]] double elapsed_ms() const {
    return static_cast<double>(profile_now_ns() - start_ns_) / 1e6;
  }

 private:
  std::uint64_t start_ns_;
};

namespace detail {
void zone_enter(std::string_view name);
void zone_exit(std::uint64_t start_ns);
}  // namespace detail

/// Scoped zone timer. Construction with profiling disabled is a no-op
/// (no allocation, no clock read). The name is copied only on the first
/// visit of a (parent, name) edge of the thread's private tree.
class ProfileZone {
 public:
  explicit ProfileZone(std::string_view name) {
    if (!profile_enabled()) return;
    open_ = true;
    detail::zone_enter(name);
    start_ns_ = profile_now_ns();
  }
  ~ProfileZone() {
    if (open_) detail::zone_exit(start_ns_);
  }
  ProfileZone(const ProfileZone&) = delete;
  ProfileZone& operator=(const ProfileZone&) = delete;

 private:
  bool open_ = false;
  std::uint64_t start_ns_ = 0;
};

/// The calling thread's open zone path from the root: its anchor, then its
/// open zones, outermost first.
std::vector<std::string> open_zone_path();

/// Merge the calling thread's zones at `path` instead of the root, for the
/// rest of the thread's life. parallel_for gives each worker its caller's
/// open_zone_path().
void anchor_thread_zones(std::vector<std::string> path);

/// One node of the call tree. `inclusive_ns` counts the whole zone;
/// `exclusive_ns()` subtracts the children, clamped at zero: the children
/// of a fan-out sum CPU time across its workers, which can exceed the
/// parent's wall time.
struct ProfileNode {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t inclusive_ns = 0;
  std::map<std::string, ProfileNode, std::less<>> children;

  [[nodiscard]] std::uint64_t exclusive_ns() const;
};

struct ProfileSnapshot {
  ProfileNode root;  // name "<root>"; top-level zones are its children
};

/// Copy the process tree. Safe to call while zones are still running on
/// other threads; a thread's zones count once its outermost zone closes.
ProfileSnapshot profile_snapshot();

/// Clear the process tree (bench lanes isolate runs).
void profile_reset();

/// Sorted text tree: children by descending inclusive time, one line per
/// zone with inclusive/exclusive ms, call count, and per-call cost.
std::string render_profile(const ProfileSnapshot& snapshot);

/// The tree as a JSON object (the run report embeds this).
std::string profile_tree_to_json(const ProfileNode& node);

}  // namespace iotls::obs
