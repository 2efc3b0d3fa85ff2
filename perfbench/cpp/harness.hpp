// Benchmark harness: statistics, in-memory spans with self time, the result
// line, host readings, registry/profiler scrapes and correctness checks.
// Everything here measures the IoTLS libraries from outside, through their
// public functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/profile.hpp"
#include "tls/client.hpp"

namespace perfbench {

/// Worker threads for every fanned-out library call and client threads of
/// the handshake loop: the core count of the 4-core host the benchmark was
/// tuned on. Pinned rather than "hardware concurrency" so runs on hosts of
/// another size stay comparable.
inline constexpr std::size_t kThreads = 4;

std::uint64_t now_ns();
double ms_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// Wall milliseconds of a fixed integer computation (multiply chains, like
/// the bignum kernels) run on `threads` threads at once: a yardstick of the
/// host's speed at that moment that no change to the repository can move.
double reference_ms(std::size_t threads);

// ---- statistics ----

double median(std::vector<double> samples);

/// A percentile needs at least this many samples above it to be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile `q` in (0, 1). nullopt when fewer than
/// kTailSamples samples lie beyond it (a p99 needs 1,000 samples).
std::optional<double> percentile(std::vector<double> samples, double q);

// ---- spans ----

/// One timed call into a layer. `parent` is 0 for a root span; `request`
/// ties the spans of one unit of work together (a seed, a query, a
/// handshake index).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store, safe to append from several threads. Disabled (the
/// default), it records nothing and hands out id 0.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  std::uint64_t next_id();
  void add(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// One JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times its own lifetime as one span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::uint64_t request,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder& recorder_;
  Span span_;
};

/// Self time of each span, by id: its duration minus the part of it that
/// the union of its children's intervals covers. Children that overlap each
/// other (concurrent calls) are counted once.
std::map<std::uint64_t, std::uint64_t> self_times(const std::vector<Span>& spans);

/// Per root span named `unit`: the self milliseconds of the unit itself
/// (under `unit`) and of its children summed by name. One map per unit, in
/// start order.
std::vector<std::map<std::string, double>> self_ms_per_unit(
    const std::vector<Span>& spans, const std::string& unit);

// ---- the result line ----

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for stderr
  /// Everything the workload measured, by metric name.
  std::map<std::string, double> measured;

  /// Count one attempted operation; a false `ok` counts it as failed.
  void attempt(bool ok, const std::string& what);
  void add(const std::string& name, double value) { measured[name] = value; }
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// {"correct": …, "attempted": …, "failed": …, "metrics": {…}} with one
/// entry per spec, in spec order. A metric the workload does not measure
/// reads 0: that workload does no work in that layer.
std::string result_json(const RunResult& result,
                        const std::vector<MetricSpec>& metrics);

// ---- host and process ----

double peak_rss_mb();

struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
/// The aggregate "cpu" line of /proc/stat (zeros where it is unreadable).
CpuTicks read_cpu_ticks();
/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_frac(const CpuTicks& before, const CpuTicks& after);

// ---- registry and profiler scrapes ----

/// Every sample of the global metrics registry's Prometheus exposition,
/// keyed by its series name with labels, e.g.
/// `iotls_crypto_cache_hits_total{cache="keypair"}`.
std::map<std::string, double> scrape_registry();
/// Sum of every series of one family in a scrape.
double family_total(const std::map<std::string, double>& scrape,
                    const std::string& family);

/// Exclusive milliseconds of every profiler zone, summed by layer (the zone
/// name's prefix before '/').
std::map<std::string, double> profile_self_ms_by_layer(
    const iotls::obs::ProfileNode& root);

// ---- correctness ----

std::string sha256_hex(std::string_view text);

/// Incremental SHA-256. `add` frames a field by its length, so ("ab","c")
/// and ("a","bc") differ; `update` appends raw bytes.
class Digest {
 public:
  void add(std::string_view field);
  void update(std::string_view bytes);
  [[nodiscard]] std::string hex();

 private:
  iotls::crypto::Sha256 sha_;
};

/// render_summary() appends the non-deterministic experiment timing table;
/// the digest covers only what comes before it.
std::string strip_timing_footer(const std::string& summary);

enum class HandshakeKind { Full, Resumed, Rejected };
std::string kind_name(HandshakeKind kind);

/// The expected outcome of each handshake of the handshake workload: a full
/// handshake succeeds without resuming and yields a ticket; a resumed one
/// succeeds abbreviated; a spoofed-CA one fails signature validation and
/// ends with the library's Table 4 alert, or with silence where the library
/// sends none.
bool handshake_ok(HandshakeKind kind, iotls::tls::TlsLibrary library,
                  const iotls::tls::ClientResult& result);

}  // namespace perfbench
