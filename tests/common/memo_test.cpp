// common::Memo: single-flight misses, exception delivery to waiters, the
// finished-entry rule and the per-shard capacity.
#include "common/memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace iotls::common {
namespace {

using IntMemo = Memo<int, std::string>;

/// Puts every key in shard 0, so one shard's capacity is observable.
struct ShardZeroHash {
  std::size_t operator()(int key) const {
    return static_cast<std::size_t>(key) * IntMemo::kShards;
  }
};

constexpr std::size_t kThreads = 8;

/// Blocks until `started` reaches kThreads, then gives the threads that
/// have not reached the memo yet time to do so.
void wait_for_everyone(const std::atomic<std::size_t>& started) {
  while (started.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(Memo, HitReturnsTheMemoisedValueUntilCleared) {
  IntMemo memo;
  int computes = 0;
  const auto get = [&](const std::string& fresh) {
    return memo.get_or_compute(7, [&] {
      ++computes;
      return fresh;
    });
  };
  EXPECT_EQ(get("first"), "first");
  EXPECT_EQ(get("second"), "first");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(memo.size(), 1u);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(get("third"), "third");
  EXPECT_EQ(computes, 2);
}

TEST(Memo, ConcurrentMissesRunTheComputationOnce) {
  IntMemo memo;
  std::atomic<std::size_t> started{0};
  std::atomic<int> computes{0};
  std::vector<std::string> values(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++started;
      values[t] = memo.get_or_compute(1, [&] {
        ++computes;
        wait_for_everyone(started);
        return std::string("computed once");
      });
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  for (const std::string& value : values) EXPECT_EQ(value, "computed once");
  EXPECT_EQ(memo.size(), 1u);
}

TEST(Memo, ThrowingComputationReachesEveryWaiter) {
  IntMemo memo;
  std::atomic<std::size_t> started{0};
  std::atomic<int> computes{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ++started;
      try {
        (void)memo.get_or_compute(2, [&]() -> std::string {
          ++computes;
          wait_for_everyone(started);
          throw std::runtime_error("generation failed");
        });
      } catch (const std::runtime_error& error) {
        if (std::string(error.what()) == "generation failed") ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(failures.load(), kThreads);

  // The failed entry is gone: the next caller computes afresh.
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.get_or_compute(2, [] { return std::string("retried"); }),
            "retried");
  EXPECT_EQ(memo.get_or_compute(2, [] { return std::string("unused"); }),
            "retried");
}

TEST(Memo, ClearedComputationDoesNotPublish) {
  // A shard clear that lands while a value is in flight removes its
  // pending entry; the finished value goes to its caller only.
  IntMemo memo;
  EXPECT_EQ(memo.get_or_compute(3,
                                [&] {
                                  memo.clear();
                                  return std::string("in flight");
                                }),
            "in flight");
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.get_or_compute(3, [] { return std::string("recomputed"); }),
            "recomputed");
}

TEST(Memo, ShardNeverHoldsMoreThanItsCapacity) {
  Memo<int, std::string, ShardZeroHash> memo(8);
  EXPECT_EQ(memo.max_per_shard(), 8u);
  for (int key = 0; key < 50; ++key) {
    EXPECT_EQ(memo.get_or_compute(key, [&] { return std::to_string(key); }),
              std::to_string(key));
    EXPECT_LE(memo.size(), memo.max_per_shard());
  }
  // The shard was cleared at capacity, so an early key is computed again.
  EXPECT_EQ(memo.get_or_compute(0, [] { return std::string("again"); }),
            "again");

  // Unbounded by default.
  IntMemo unbounded;
  for (int key = 0; key < 200; ++key) {
    (void)unbounded.get_or_compute(key, [] { return std::string(); });
  }
  EXPECT_EQ(unbounded.size(), 200u);
}

}  // namespace
}  // namespace iotls::common
