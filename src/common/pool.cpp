#include "common/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace iotls::common {

namespace {

/// Pool metrics (iotls_pool_*). Scheduling-dependent by nature — an
/// operator surface only, never an input to any experiment output.
struct PoolMetrics {
  obs::Counter& tasks = obs::MetricsRegistry::global().counter(
      "iotls_pool_tasks_total", "Tasks run by parallel fan-outs");
  obs::Gauge& workers = obs::MetricsRegistry::global().gauge(
      "iotls_pool_workers", "Worker count of the most recent fan-out");

  static PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

thread_local bool tl_in_worker = false;

}  // namespace

std::size_t default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_threads(std::size_t threads) {
  return threads == 0 ? default_threads() : threads;
}

bool in_worker() { return tl_in_worker; }

void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(count);
  const auto run = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  const std::size_t width = std::min(resolve_threads(threads), count);
  // Serial path: threads = 1, nothing to fan out, or we are already inside
  // a worker (a nested fan-out would only oversubscribe the cores). The
  // parallel path runs the very same task bodies and merges by index, so
  // both paths are bit-compatible by construction.
  if (width <= 1 || in_worker()) {
    for (std::size_t i = 0; i < count; ++i) run(i);
  } else {
    const obs::ProfileZone zone("pool/fan_out");
    // Each worker merges its zones under the caller's open path, so the
    // fan-out's work is credited to the zone that issued it.
    const std::vector<std::string> anchor = obs::open_zone_path();
    if (obs::metrics_enabled()) {
      auto& metrics = PoolMetrics::get();
      metrics.tasks.inc(count);
      metrics.workers.set(static_cast<double>(width));
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(width);
    for (std::size_t w = 0; w < width; ++w) {
      workers.emplace_back([&] {
        tl_in_worker = true;
        if (!anchor.empty()) obs::anchor_thread_zones(anchor);
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          const obs::ProfileZone task("pool/task");
          run(i);
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace iotls::common
