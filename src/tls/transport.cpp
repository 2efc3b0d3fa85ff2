#include "tls/transport.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "tls/messages.hpp"

namespace iotls::tls {

namespace {

// Consumed-prefix length at which receive() compacts the inbox. Small
// enough to bound a chatty connection's footprint, large enough that the
// usual 4-6 record handshake never pays for an erase.
constexpr std::size_t kInboxCompactThreshold = 16;

constexpr std::size_t kRecordHeaderBytes = 5;  // type(1) version(2) len(2)

struct TransportMetrics {
  obs::Counter& records_c2s = obs::MetricsRegistry::global().counter(
      "iotls_tls_records_total", "TLS records on the wire by direction",
      "direction", "client_to_server");
  obs::Counter& records_s2c = obs::MetricsRegistry::global().counter(
      "iotls_tls_records_total", "TLS records on the wire by direction",
      "direction", "server_to_client");
  obs::Counter& bytes_c2s = obs::MetricsRegistry::global().counter(
      "iotls_tls_wire_bytes_total", "TLS wire bytes by direction",
      "direction", "client_to_server");
  obs::Counter& bytes_s2c = obs::MetricsRegistry::global().counter(
      "iotls_tls_wire_bytes_total", "TLS wire bytes by direction",
      "direction", "server_to_client");
  obs::Histogram& records_per_conn = obs::MetricsRegistry::global().histogram(
      "iotls_tls_connection_records",
      "Records exchanged per connection (handshake latency in records)",
      {2, 4, 6, 8, 12, 16, 24, 32});
  obs::Histogram& bytes_per_conn = obs::MetricsRegistry::global().histogram(
      "iotls_tls_connection_bytes", "Wire bytes exchanged per connection",
      {256, 512, 1024, 2048, 4096, 8192, 16384, 65536});

  static TransportMetrics& get() {
    static TransportMetrics metrics;
    return metrics;
  }
};

}  // namespace

void Transport::note(bool client_to_server, const TlsRecord& record) {
  const std::size_t wire_bytes = kRecordHeaderBytes + record.payload.size();
  if (client_to_server) {
    ++records_to_server_;
    bytes_to_server_ += wire_bytes;
  } else {
    ++records_to_client_;
    bytes_to_client_ += wire_bytes;
  }
  if (obs::metrics_enabled()) {
    auto& metrics = TransportMetrics::get();
    (client_to_server ? metrics.records_c2s : metrics.records_s2c).inc();
    (client_to_server ? metrics.bytes_c2s : metrics.bytes_s2c).inc(wire_bytes);
  }
  if (span_ != nullptr && span_->full()) {
    std::vector<obs::Attr> attrs{
        {"dir", client_to_server ? "client->server" : "server->client"},
        {"type", content_type_name(record.type)},
        {"bytes", std::to_string(wire_bytes)},
    };
    // The handshake message type is the first payload byte.
    if (record.type == ContentType::Handshake && !record.payload.empty()) {
      attrs.emplace_back(
          "message",
          handshake_type_name(
              static_cast<HandshakeType>(record.payload[0])));
    }
    span_->event("record", std::move(attrs));
  }
}

void Transport::send(const TlsRecord& record) {
  const obs::ProfileZone zone("tls/transport_send");
  if (closed_ || session_ == nullptr) {
    throw common::ProtocolError("send on closed transport");
  }
  note(true, record);
  for (const auto& tap : taps_) tap(true, record);
  std::vector<TlsRecord> replies = session_->on_record(record);
  for (auto& reply : replies) {
    note(false, reply);
    for (const auto& tap : taps_) tap(false, reply);
    inbox_.push_back(std::move(reply));
  }
}

std::optional<TlsRecord> Transport::receive() {
  if (inbox_pos_ >= inbox_.size()) {
    // Fully drained: release the backlog instead of letting read records
    // accumulate for the connection's lifetime.
    inbox_.clear();
    inbox_pos_ = 0;
    return std::nullopt;
  }
  TlsRecord record = std::move(inbox_[inbox_pos_++]);
  if (inbox_pos_ >= kInboxCompactThreshold) {
    inbox_.erase(inbox_.begin(),
                 inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_pos_));
    inbox_pos_ = 0;
  }
  return record;
}

void Transport::close() {
  if (closed_) return;
  closed_ = true;
  if (obs::metrics_enabled()) {
    auto& metrics = TransportMetrics::get();
    metrics.records_per_conn.observe(
        static_cast<double>(records_to_server_ + records_to_client_));
    metrics.bytes_per_conn.observe(
        static_cast<double>(bytes_to_server_ + bytes_to_client_));
  }
  if (span_ != nullptr && span_->enabled()) {
    span_->event(
        "close",
        {{"records_to_server", std::to_string(records_to_server_)},
         {"records_to_client", std::to_string(records_to_client_)},
         {"bytes_to_server", std::to_string(bytes_to_server_)},
         {"bytes_to_client", std::to_string(bytes_to_client_)}});
  }
  if (session_ != nullptr) session_->on_close();
}

}  // namespace iotls::tls
