// Flight recorder: structured per-connection handshake traces.
//
// A Span is the trace of one unit of work (usually one TLS connection, but
// also one probe pair or one interception decision). Instrumented code
// appends TraceEvents — each a typed record with ordered key/value
// attributes and a per-span sequence number. There are NO wall-clock
// timestamps anywhere in a trace: ordering comes from the deterministic
// sequence counter and (where relevant) simtime dates passed in as
// attributes by the caller, so a trace is byte-identical across thread
// counts and repeat runs (the same determinism contract DESIGN.md states
// for tables and figures).
//
// Spans accumulate into a TraceLog. Appends are thread-safe, but the
// experiment engine never relies on append order across threads: each
// pool-fanned per-device task records into its own TraceLog and the
// coordinator merges them in catalog order after the fan-out drains.
//
// This module is deliberately dependency-free (std only) so every layer —
// including iotls_common's thread pool — can link against it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace iotls::obs {

/// How much a run records. Off = spans are never created (zero cost);
/// Handshake = semantic events only (hellos, validation, alerts, outcome);
/// Full = Handshake plus every record on the wire.
enum class TraceLevel {
  Off = 0,
  Handshake = 1,
  Full = 2,
};

std::string trace_level_name(TraceLevel level);

/// Map the IOTLS_TRACE knob (0/1/2) onto a level; values above 2 clamp to
/// Full so `IOTLS_TRACE=1` in the README quickstart simply "turns it on".
TraceLevel trace_level_from_int(long value);

using Attr = std::pair<std::string, std::string>;

struct TraceEvent {
  std::uint32_t seq = 0;  // ordinal within the span, starting at 0
  std::string type;       // e.g. "record", "validation", "alert_sent"
  std::vector<Attr> attrs;  // insertion order (deterministic)

  [[nodiscard]] const std::string* attr(const std::string& key) const;
};

/// One traced unit of work. Cheap to create; a default-constructed Span is
/// disabled and every mutation is a no-op, so call sites can hold a Span*
/// unconditionally.
class Span {
 public:
  Span() = default;
  Span(std::string name, TraceLevel level)
      : name_(std::move(name)), level_(level) {}

  [[nodiscard]] bool enabled() const { return level_ != TraceLevel::Off; }
  /// True when record-level (wire) events should be emitted too.
  [[nodiscard]] bool full() const { return level_ == TraceLevel::Full; }
  [[nodiscard]] TraceLevel level() const { return level_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Span-level attribute (device, destination, simtime date, ...).
  void set_attr(std::string key, std::string value);
  /// Append one event; no-op on a disabled span.
  void event(std::string type, std::initializer_list<Attr> attrs = {});
  void event(std::string type, std::vector<Attr> attrs);

  [[nodiscard]] const std::vector<Attr>& attrs() const { return attrs_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  /// First event of the given type, if any.
  [[nodiscard]] const TraceEvent* find(const std::string& type) const;

 private:
  std::string name_;
  TraceLevel level_ = TraceLevel::Off;
  std::uint32_t next_seq_ = 0;
  std::vector<Attr> attrs_;
  std::vector<TraceEvent> events_;
};

/// Human-readable rendering of one span (the annotated trace the
/// trace_handshake example prints).
std::string render_trace(const Span& span);

/// One span as a single JSON object (one JSONL line, no trailing newline).
std::string span_to_json(const Span& span);

/// Per-run collection of finished spans. Thread-safe appends; movable so a
/// pool task can build a local log and hand it back through parallel_map
/// for an in-order merge.
class TraceLog {
 public:
  explicit TraceLog(TraceLevel level = TraceLevel::Off)
      : level_(level), mutex_(std::make_unique<std::mutex>()) {}

  TraceLog(TraceLog&&) noexcept = default;
  TraceLog& operator=(TraceLog&&) noexcept = default;

  [[nodiscard]] TraceLevel level() const { return level_; }
  [[nodiscard]] bool enabled() const { return level_ != TraceLevel::Off; }

  /// A new span at this log's level (not yet recorded — pass to add()).
  [[nodiscard]] Span start_span(std::string name) const {
    return Span(std::move(name), level_);
  }

  /// Record a finished span. Disabled spans are dropped.
  void add(Span span);

  /// Append every span of `other`, preserving its internal order. The
  /// coordinator calls this serially in catalog order after a fan-out.
  void merge(TraceLog other);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const;

  /// All spans, one JSON object per line. This is the format the Table 7/5
  /// trace digest hashes (test_obs_determinism); no run writes it out.
  [[nodiscard]] std::string to_jsonl() const;
  /// All spans through render_trace(), separated by blank lines.
  [[nodiscard]] std::string render() const;
  /// One-line summary ("N spans, M events") for the bench banners.
  [[nodiscard]] std::string summary() const;

 private:
  TraceLevel level_ = TraceLevel::Off;
  std::unique_ptr<std::mutex> mutex_;
  std::vector<Span> spans_;
};

}  // namespace iotls::obs
