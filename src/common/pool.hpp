// Deterministic fan-out: the experiment engine's concurrency substrate.
//
// The determinism contract (DESIGN.md "Concurrency model"): tasks must
// pre-derive any randomness from `(seed, label)` BEFORE dispatch, shared
// inputs are const during a fan-out, and `parallel_map` always merges
// results in input order — so a run at `threads = N` is byte-identical to
// `threads = 1` for every N.
//
// Scheduling: each fan-out starts its own worker threads, which claim the
// next unstarted index from one atomic counter until none is left, and
// joins them before it returns. Tasks are coarse (a whole per-device
// experiment) and every task of a fan-out is known up front, so there is
// no queue to balance.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

namespace iotls::common {

/// Hardware concurrency, never 0.
std::size_t default_threads();

/// Resolve a `threads` knob: 0 = hardware concurrency, otherwise as given.
std::size_t resolve_threads(std::size_t threads);

/// True when the calling thread is a fan-out worker. The nested-fan-out
/// guard: a fan-out issued from inside a task runs serially inline.
bool in_worker();

/// Index-space fan-out: fn(0) .. fn(count - 1), each index exactly once.
/// Each index must touch only its own output slot (or synchronize).
/// `threads` semantics: 0 = hardware concurrency, 1 = serial execution on
/// the calling thread; otherwise min(threads, count) worker threads, with
/// the caller waiting. A call from a worker, or with count <= 1, also runs
/// serially. Exceptions: every index still runs, then the lowest-index
/// failure is rethrown, so the choice does not depend on scheduling.
void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Apply `fn` to every item; results are returned in input order, so the
/// merge is deterministic for every thread count. `threads` and exceptions
/// as for `parallel_for`.
template <typename Item, typename Fn>
auto parallel_map(std::size_t threads, const std::vector<Item>& items,
                  Fn&& fn) {
  using Result = std::decay_t<std::invoke_result_t<Fn&, const Item&>>;
  std::vector<std::optional<Result>> slots(items.size());
  parallel_for(threads, items.size(),
               [&](std::size_t i) { slots[i].emplace(fn(items[i])); });
  std::vector<Result> out;
  out.reserve(items.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace iotls::common
