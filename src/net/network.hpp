// The simulated home network: hostname-addressed servers, a gateway capture
// point on every connection, and an optional on-path interceptor slot
// (where mitmproxy sits in the paper's active experiments).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/capture.hpp"
#include "obs/trace.hpp"
#include "tls/transport.hpp"

namespace iotls::net {

class Network {
 public:
  /// Creates the server side of one connection to `hostname`.
  using SessionFactory =
      std::function<std::shared_ptr<tls::ServerSession>(
          const std::string& hostname)>;

  /// On-path interceptor: decides what actually answers a connection to
  /// `hostname`. `real` builds the legitimate server session (so a
  /// passthrough interceptor can just return real(hostname)).
  using Interceptor =
      std::function<std::shared_ptr<tls::ServerSession>(
          const std::string& hostname, const SessionFactory& real)>;

  /// Register (or replace) the authoritative server for a hostname.
  void register_server(const std::string& hostname, SessionFactory factory);

  void set_interceptor(Interceptor interceptor);
  void clear_interceptor();
  [[nodiscard]] bool intercepting() const {
    return static_cast<bool>(interceptor_);
  }

  /// One client connection. The returned transport is tapped by a gateway
  /// observer whose record lands in capture() when the connection object is
  /// destroyed (or flush() is called).
  struct Connection {
    std::unique_ptr<tls::Transport> transport;
    std::shared_ptr<tls::ServerSession> session;
    std::shared_ptr<ConnectionObserver> observer;
    /// Per-connection trace span (null when tracing is off). Attached to
    /// the transport; committed to the trace log by finish().
    std::unique_ptr<obs::Span> span;
  };

  /// Throws ProtocolError if no server (and no interceptor) handles the
  /// hostname.
  Connection connect(const std::string& hostname, const std::string& device,
                     common::Month month);

  /// Record the connection's observation into the capture log and commit
  /// its trace span (with a final `capture` event) to the trace log.
  void finish(Connection& connection);

  [[nodiscard]] CaptureLog& capture() { return capture_; }
  [[nodiscard]] const CaptureLog& capture() const { return capture_; }

  /// Trace destination for per-connection spans (non-owning, may be null).
  void set_trace(obs::TraceLog* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceLog* trace() const { return trace_; }

 private:
  /// connect() internals: interceptor-aware session resolution and
  /// per-connection span creation.
  std::shared_ptr<tls::ServerSession> resolve_session(
      const std::string& hostname);
  std::unique_ptr<obs::Span> make_span(const std::string& hostname,
                                       const std::string& device,
                                       common::Month month);

  std::map<std::string, SessionFactory> servers_;
  Interceptor interceptor_;
  CaptureLog capture_;
  obs::TraceLog* trace_ = nullptr;
};

}  // namespace iotls::net
