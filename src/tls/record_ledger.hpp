// Per-connection wire accounting for Transport.
//
// Counts records and bytes and emits the `record`/`close` span events of
// one connection. The note/close sequence is part of the determinism
// contract: trace output must be byte-identical at any thread count.
#pragma once

#include <cstddef>

#include "obs/trace.hpp"
#include "tls/record.hpp"

namespace iotls::tls {

/// Counts records/bytes per direction, feeds the transport metrics, and
/// emits `record`/`close` span events. One ledger per connection.
class RecordLedger {
 public:
  void set_span(obs::Span* span) { span_ = span; }
  [[nodiscard]] obs::Span* span() const { return span_; }

  /// Account one record on the wire (metrics counters; at TraceLevel::Full
  /// a `record` span event with direction/type/bytes/message).
  void note(bool client_to_server, const TlsRecord& record);

  /// Close the connection's books: per-connection histograms plus a
  /// `close` span event with the four totals. Idempotent.
  void close();

  [[nodiscard]] bool closed() const { return closed_; }

 private:
  obs::Span* span_ = nullptr;
  bool closed_ = false;
  std::size_t records_to_server_ = 0;
  std::size_t records_to_client_ = 0;
  std::size_t bytes_to_server_ = 0;
  std::size_t bytes_to_client_ = 0;
};

}  // namespace iotls::tls
