// Sharded, single-flight memo table: the one memoisation mechanism in src/.
//
// `get_or_compute(key, fn)` returns the value memoised for `key`, or runs
// `fn()` to produce it. The contract:
//
//   - First miss. The first caller to miss a key publishes a pending entry
//     and computes the value; every other caller for that key waits for
//     that one computation. So each key is computed once, however many
//     threads ask for it at the same moment.
//   - Throwing compute. If `fn` throws, every waiter receives the
//     exception and the entry is dropped; the next caller computes afresh.
//   - Finished entries hold the value itself. The record waiters block on
//     exists only while a value is in flight: when `fn` returns, its
//     pending entry is replaced by the value, but only if that entry is
//     still its own (a shard clear may have removed it meanwhile). The
//     value is copied to the waiters only when there are some.
//   - A hit on a finished entry takes its shard's lock once and copies the
//     value out.
//
// Shards are generational: one that reaches `max_per_shard` entries
// (finished and pending together) is cleared wholesale rather than evicted
// entry by entry, which bounds memory on workloads with unbounded distinct
// keys. Waiters of a cleared pending entry still get its value. The shard
// is picked by `Hash(key) % kShards`.
//
// Deadlock freedom: a compute function must never ask its own memo for a
// key, directly or through another memo's compute. The memos in src/ form
// a DAG (fleet template sets -> keypairs / certificate signing / chain
// verification -> signature verification), and a parallel_map nested in a
// pool task runs inline, so a waiter never blocks a computation it waits
// for.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace iotls::common {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class Memo {
 public:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  explicit Memo(std::size_t max_per_shard = kUnbounded)
      : max_per_shard_(max_per_shard) {}

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  template <typename Fn>
  Value get_or_compute(const Key& key, Fn&& fn) {
    Shard& shard = shards_[Hash{}(key) % kShards];
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      if (const auto it = shard.values.find(key); it != shard.values.end()) {
        return it->second;
      }
      if (const auto it = shard.flights.find(key); it != shard.flights.end()) {
        const std::shared_ptr<Flight> pending = it->second;
        shard.landed.wait(lock, [&] { return pending->done; });
        if (pending->error) std::rethrow_exception(pending->error);
        return *pending->value;
      }
      if (shard.values.size() + shard.flights.size() >= max_per_shard_) {
        shard.values.clear();
        shard.flights.clear();
      }
      flight = std::make_shared<Flight>();
      shard.flights.emplace(key, flight);
    }
    std::optional<Value> value;
    try {
      value.emplace(std::forward<Fn>(fn)());
    } catch (...) {
      land(shard, key, flight, nullptr, std::current_exception());
      throw;
    }
    land(shard, key, flight, &*value, nullptr);
    return std::move(*value);
  }

  /// Drop every finished and pending entry.
  void clear() {
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.values.clear();
      shard.flights.clear();
    }
  }

  /// Entries currently held, finished and pending, over all shards.
  [[nodiscard]] std::size_t size() {
    std::size_t total = 0;
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.values.size() + shard.flights.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t max_per_shard() const { return max_per_shard_; }

 private:
  /// A computation in flight. Its waiters hold a reference to it and
  /// wait on their shard's condition variable until it is done.
  struct Flight {
    bool done = false;
    std::optional<Value> value;
    std::exception_ptr error;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable landed;
    std::unordered_map<Key, Value, Hash> values;
    std::unordered_map<Key, std::shared_ptr<Flight>, Hash> flights;
  };

  /// Finish `flight`: replace its pending entry, if it is still there,
  /// with `value` (or drop it when the computation threw), and hand the
  /// outcome to its waiters.
  static void land(Shard& shard, const Key& key,
                   const std::shared_ptr<Flight>& flight, const Value* value,
                   std::exception_ptr error) {
    bool waited_for = false;
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.flights.find(key);
      if (it != shard.flights.end() && it->second == flight) {
        shard.flights.erase(it);
        if (value != nullptr) shard.values.emplace(key, *value);
      }
      // Waiters copy the reference under this lock, so any copy besides
      // the caller's is a waiter that still needs the outcome.
      waited_for = flight.use_count() > 1;
      if (waited_for) {
        if (value != nullptr) {
          flight->value = *value;
        } else {
          flight->error = std::move(error);
        }
      }
      flight->done = true;
    }
    if (waited_for) shard.landed.notify_all();
  }

  std::size_t max_per_shard_;
  std::array<Shard, kShards> shards_;
};

}  // namespace iotls::common
