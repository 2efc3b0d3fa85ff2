#include "obs/trace.hpp"

#include "common/json.hpp"

namespace iotls::obs {

std::string trace_level_name(TraceLevel level) {
  switch (level) {
    case TraceLevel::Off: return "off";
    case TraceLevel::Handshake: return "handshake";
    case TraceLevel::Full: return "full";
  }
  return "unknown";
}

TraceLevel trace_level_from_int(long value) {
  if (value <= 0) return TraceLevel::Off;
  if (value == 1) return TraceLevel::Handshake;
  return TraceLevel::Full;
}

const std::string* TraceEvent::attr(const std::string& key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Span::set_attr(std::string key, std::string value) {
  if (!enabled()) return;
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(std::move(key), std::move(value));
}

void Span::event(std::string type, std::initializer_list<Attr> attrs) {
  event(std::move(type), std::vector<Attr>(attrs));
}

void Span::event(std::string type, std::vector<Attr> attrs) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.seq = next_seq_++;
  ev.type = std::move(type);
  ev.attrs = std::move(attrs);
  events_.push_back(std::move(ev));
}

const TraceEvent* Span::find(const std::string& type) const {
  for (const auto& ev : events_) {
    if (ev.type == type) return &ev;
  }
  return nullptr;
}

namespace {

void append_attrs_json(std::string& out, const std::vector<Attr>& attrs) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : attrs) {
    if (!first) out += ',';
    first = false;
    out += common::json_quote(k);
    out += ':';
    out += common::json_quote(v);
  }
  out += '}';
}

}  // namespace

std::string span_to_json(const Span& span) {
  std::string out = "{\"span\":";
  out += common::json_quote(span.name());
  out += ",\"attrs\":";
  append_attrs_json(out, span.attrs());
  out += ",\"events\":[";
  bool first = true;
  for (const auto& ev : span.events()) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":" + std::to_string(ev.seq) + ",\"type\":";
    out += common::json_quote(ev.type);
    out += ",\"attrs\":";
    append_attrs_json(out, ev.attrs);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string render_trace(const Span& span) {
  std::string out = "span " + span.name();
  for (const auto& [k, v] : span.attrs()) {
    out += "  [" + k + "=" + v + "]";
  }
  out += '\n';
  for (const auto& ev : span.events()) {
    out += "  #" + std::to_string(ev.seq) + " " + ev.type;
    for (const auto& [k, v] : ev.attrs) {
      out += "  " + k + "=" + v;
    }
    out += '\n';
  }
  return out;
}

void TraceLog::add(Span span) {
  if (!span.enabled()) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  spans_.push_back(std::move(span));
}

void TraceLog::merge(TraceLog other) {
  std::lock_guard<std::mutex> lock(*mutex_);
  for (auto& span : other.spans_) spans_.push_back(std::move(span));
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return spans_.size();
}

std::string TraceLog::to_jsonl() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::string out;
  for (const auto& span : spans_) {
    out += span_to_json(span);
    out += '\n';
  }
  return out;
}

std::string TraceLog::render() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::string out;
  for (const auto& span : spans_) {
    out += render_trace(span);
    out += '\n';
  }
  return out;
}

std::string TraceLog::summary() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::size_t events = 0;
  for (const auto& span : spans_) events += span.events().size();
  return std::to_string(spans_.size()) + " spans, " +
         std::to_string(events) + " events (level " +
         trace_level_name(level_) + ")";
}

}  // namespace iotls::obs
