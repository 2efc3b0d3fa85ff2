// The parallel engine's substrate: ordering, exception propagation, the
// nested-fan-out guard, fan-out width, and the serial fallback.
#include "common/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace iotls::common {
namespace {

TEST(ThreadKnob, ResolvesZeroToHardwareConcurrency) {
  EXPECT_EQ(resolve_threads(0), default_threads());
  EXPECT_GE(default_threads(), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ParallelMap, PreservesInputOrder) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto out =
        parallel_map(threads, items, [](const int& v) { return v * v; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
  }
}

TEST(ParallelMap, HandlesNonCopyableResultsAndEmptyInput) {
  const std::vector<int> empty;
  EXPECT_TRUE(
      parallel_map(8, empty, [](const int& v) { return v; }).empty());

  std::vector<int> items{1, 2, 3};
  const auto out = parallel_map(8, items, [](const int& v) {
    return std::make_unique<int>(v);  // move-only result type
  });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(*out[2], 3);
}

TEST(ParallelMap, PropagatesLowestIndexException) {
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    try {
      (void)parallel_map(threads, items, [](const int& v) {
        if (v == 7 || v == 23) {
          throw std::runtime_error("task " + std::to_string(v));
        }
        return v;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Deterministic choice: the failure of the lowest-index task wins,
      // regardless of which worker hit its error first.
      EXPECT_STREQ(e.what(), "task 7");
    }
  }
}

TEST(ParallelMap, NestedCallsRunInlineWithoutDeadlock) {
  std::vector<int> outer(16);
  std::iota(outer.begin(), outer.end(), 0);
  const auto out = parallel_map(4, outer, [](const int& v) {
    // A fan-out issued from inside a pool task must not block on the pool
    // (classic self-deadlock); the guard runs it serially inline.
    std::vector<int> inner{1, 2, 3};
    const auto nested =
        parallel_map(4, inner, [&](const int& w) { return v * 100 + w; });
    return nested[0] + nested[1] + nested[2];
  });
  ASSERT_EQ(out.size(), outer.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 300 + 6);
  }
}

TEST(ParallelMap, SerialFallbackRunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<int> items{1, 2, 3, 4};
  const auto out = parallel_map(1, items, [&](const int& v) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(in_worker());
    return v + 1;
  });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4, 5}));
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{6}}) {
    std::vector<std::atomic<int>> visits(257);
    parallel_for(threads, visits.size(),
                 [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelFor, TasksRunOnWorkersAndTheCallerIsNotOne) {
  std::atomic<int> on_worker{0};
  parallel_for(4, 32, [&](std::size_t) {
    if (in_worker()) on_worker.fetch_add(1);
  });
  EXPECT_EQ(on_worker.load(), 32);
  EXPECT_FALSE(in_worker());
}

TEST(ParallelFor, EveryIndexRunsOnceAndTheLowestFailureIsRethrown) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::atomic<int>> visits(64);
    try {
      parallel_for(threads, visits.size(), [&](std::size_t i) {
        visits[i].fetch_add(1);
        if (i % 10 == 3) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1) << threads;
  }
}

TEST(ParallelFor, StartsAtMostOneWorkerPerIndex) {
  const auto caller = std::this_thread::get_id();
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(8, 3, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(ids.count(caller), 0u);  // the caller only waits
  const obs::Gauge* workers =
      obs::MetricsRegistry::global().find_gauge("iotls_pool_workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_DOUBLE_EQ(workers->value(), 3.0);
}

}  // namespace
}  // namespace iotls::common
