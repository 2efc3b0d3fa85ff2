#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hex.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

namespace {

/// About 15 ms on one core of the 2.1 GHz host the benchmark was tuned on.
constexpr std::uint32_t kReferenceSteps = 3'000'000;

std::uint64_t reference_work(std::uint64_t x) {
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < kReferenceSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const unsigned __int128 product =
        static_cast<unsigned __int128>(x) * (acc | 1);
    acc = static_cast<std::uint64_t>(product >> 64) ^
          static_cast<std::uint64_t>(product);
  }
  return acc;
}

}  // namespace

double reference_ms(std::size_t threads) {
  std::vector<std::uint64_t> out(threads);
  const std::uint64_t start = now_ns();
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&out, t] { out[t] = reference_work(t + 1); });
    }
    for (auto& worker : workers) worker.join();
  }
  const double ms = ms_between(start, now_ns());
  volatile std::uint64_t sink = 0;  // keeps the work observable
  for (const std::uint64_t v : out) sink = sink ^ v;
  return ms;
}

// ---- statistics ----

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

// ---- spans ----

std::uint64_t SpanRecorder::next_id() {
  return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void SpanRecorder::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, std::string name,
                       std::uint64_t request, std::uint64_t parent)
    : recorder_(recorder) {
  if (!recorder_.enabled()) return;
  span_.id = recorder_.next_id();
  span_.parent = parent;
  span_.name = std::move(name);
  span_.request = request;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  recorder_.add(std::move(span_));
}

std::map<std::uint64_t, std::uint64_t> self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::uint64_t, std::uint64_t> out;
  for (const Span& s : spans) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        const std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    out[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::vector<std::map<std::string, double>> self_ms_per_unit(
    const std::vector<Span>& spans, const std::string& unit) {
  const auto self = self_times(spans);
  std::vector<const Span*> units;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.name == unit) units.push_back(&s);
  }
  std::sort(units.begin(), units.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  std::vector<std::map<std::string, double>> out;
  for (const Span* u : units) {
    std::map<std::string, double> row;
    row[unit] = static_cast<double>(self.at(u->id)) / 1e6;
    for (const Span& s : spans) {
      if (s.parent == u->id) {
        row[s.name] += static_cast<double>(self.at(s.id)) / 1e6;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

// ---- the result line ----

void RunResult::attempt(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

std::string result_json(const RunResult& result,
                        const std::vector<MetricSpec>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : metrics) {
    const auto it = result.measured.find(m.name);
    const double v = it == result.measured.end() ? 0.0 : it->second;
    char value[64];
    // Non-finite values are not JSON.
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---- host and process ----

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_frac(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

// ---- registry and profiler scrapes ----

std::map<std::string, double> scrape_registry() {
  std::map<std::string, double> out;
  std::istringstream in(
      iotls::obs::MetricsRegistry::global().render_prometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double family_total(const std::map<std::string, double>& scrape,
                    const std::string& family) {
  double sum = 0.0;
  for (const auto& [series, value] : scrape) {
    if (series == family || series.rfind(family + "{", 0) == 0) sum += value;
  }
  return sum;
}

namespace {
void add_layer_self(const iotls::obs::ProfileNode& node,
                    std::map<std::string, double>& out) {
  const std::size_t slash = node.name.find('/');
  if (slash != std::string::npos) {
    out[node.name.substr(0, slash)] +=
        static_cast<double>(node.exclusive_ns()) / 1e6;
  }
  for (const auto& [name, child] : node.children) add_layer_self(child, out);
}
}  // namespace

std::map<std::string, double> profile_self_ms_by_layer(
    const iotls::obs::ProfileNode& root) {
  std::map<std::string, double> out;
  add_layer_self(root, out);
  return out;
}

// ---- correctness ----

std::string sha256_hex(std::string_view text) {
  const auto digest = iotls::crypto::Sha256::digest(iotls::common::BytesView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  return iotls::common::hex_encode(
      iotls::common::BytesView(digest.data(), digest.size()));
}

void Digest::add(std::string_view field) {
  update(std::to_string(field.size()) + ":");
  update(field);
}

void Digest::update(std::string_view bytes) {
  sha_.update(iotls::common::BytesView(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

std::string Digest::hex() {
  const auto digest = sha_.finish();
  return iotls::common::hex_encode(
      iotls::common::BytesView(digest.data(), digest.size()));
}

std::string strip_timing_footer(const std::string& summary) {
  const std::size_t footer = summary.rfind("\nExperiment timings (");
  return footer == std::string::npos ? summary : summary.substr(0, footer);
}

std::string kind_name(HandshakeKind kind) {
  switch (kind) {
    case HandshakeKind::Full: return "full";
    case HandshakeKind::Resumed: return "resumed";
    case HandshakeKind::Rejected: return "rejected";
  }
  return "unknown";
}

bool handshake_ok(HandshakeKind kind, iotls::tls::TlsLibrary library,
                  const iotls::tls::ClientResult& result) {
  using iotls::tls::HandshakeOutcome;
  switch (kind) {
    case HandshakeKind::Full:
      return result.success() && !result.resumed &&
             result.resumption.has_value();
    case HandshakeKind::Resumed:
      return result.success() && result.resumed;
    case HandshakeKind::Rejected:
      return result.outcome == HandshakeOutcome::ValidationFailed &&
             result.verify_error == iotls::x509::VerifyError::BadSignature &&
             result.alert_sent ==
                 iotls::tls::alert_for_verify_error(
                     library, iotls::x509::VerifyError::BadSignature);
  }
  return false;
}

}  // namespace perfbench
