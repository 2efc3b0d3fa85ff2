#include "mitm/interceptor.hpp"

#include "obs/metrics.hpp"
#include "tls/version.hpp"

namespace iotls::mitm {

namespace {

struct MitmMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& interceptions(const std::string& mode) {
    return reg.counter("iotls_mitm_interceptions_total",
                       "Connections answered by the interceptor, by mode",
                       "mode", mode);
  }
  obs::Counter& compromised = reg.counter(
      "iotls_mitm_compromised_total",
      "Interceptions that completed the handshake and read plaintext");

  static MitmMetrics& get() {
    static MitmMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::string intercept_mode_name(InterceptMode::Kind kind) {
  switch (kind) {
    case InterceptMode::Kind::Attack: return "attack";
    case InterceptMode::Kind::Failure: return "failure";
    case InterceptMode::Kind::SpoofedCaProbe: return "spoofed_ca_probe";
    case InterceptMode::Kind::UnknownCaProbe: return "unknown_ca_probe";
    case InterceptMode::Kind::OldVersionProbe: return "old_version_probe";
  }
  return "unknown";
}

InterceptMode InterceptMode::make_attack(AttackKind kind) {
  InterceptMode m;
  m.kind = Kind::Attack;
  m.attack = kind;
  return m;
}

InterceptMode InterceptMode::make_failure(FailureKind kind) {
  InterceptMode m;
  m.kind = Kind::Failure;
  m.failure = kind;
  return m;
}

InterceptMode InterceptMode::spoofed_ca(x509::Certificate real_root) {
  InterceptMode m;
  m.kind = Kind::SpoofedCaProbe;
  m.probe_root = std::move(real_root);
  return m;
}

InterceptMode InterceptMode::unknown_ca() {
  InterceptMode m;
  m.kind = Kind::UnknownCaProbe;
  return m;
}

InterceptMode InterceptMode::make_old_version(tls::ProtocolVersion version) {
  InterceptMode m;
  m.kind = Kind::OldVersionProbe;
  m.old_version = version;
  return m;
}

Interceptor::Interceptor(const pki::CaUniverse& universe,
                         const testbed::CloudFarm& cloud, std::uint64_t seed)
    : forge_(universe, seed), cloud_(&cloud) {}

void Interceptor::set_passthrough(std::set<std::string> hostnames) {
  passthrough_ = std::move(hostnames);
}

void Interceptor::install(net::Network& network) {
  trace_ = network.trace();
  network.set_interceptor(
      [this](const std::string& hostname,
             const net::Network::SessionFactory& real) {
        return intercept(hostname, real);
      });
}

void Interceptor::uninstall(net::Network& network) {
  network.clear_interceptor();
  trace_ = nullptr;
}

namespace {

/// A permissive suite preference covering everything a device might offer.
std::vector<std::uint16_t> permissive_suites() {
  namespace t = iotls::tls;
  return {t::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
          t::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
          t::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305,
          t::TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
          t::TLS_DHE_RSA_WITH_AES_128_GCM_SHA256,
          t::TLS_RSA_WITH_AES_128_GCM_SHA256,
          t::TLS_RSA_WITH_AES_128_CBC_SHA,
          t::TLS_RSA_WITH_AES_256_CBC_SHA,
          t::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
          t::TLS_RSA_WITH_RC4_128_SHA,
          t::TLS_AES_128_GCM_SHA256,
          t::TLS_CHACHA20_POLY1305_SHA256};
}

}  // namespace

std::shared_ptr<tls::ServerSession> Interceptor::intercept(
    const std::string& hostname, const net::Network::SessionFactory& real) {
  if (passthrough_.count(hostname)) {
    if (obs::metrics_enabled()) {
      MitmMetrics::get().interceptions("passthrough").inc();
    }
    return real(hostname);
  }
  if (obs::metrics_enabled()) {
    MitmMetrics::get()
        .interceptions(intercept_mode_name(mode_.kind))
        .inc();
  }
  if (trace_ != nullptr && trace_->enabled()) {
    obs::Span span = trace_->start_span("intercept:" + hostname);
    span.set_attr("mode", intercept_mode_name(mode_.kind));
    switch (mode_.kind) {
      case InterceptMode::Kind::Attack:
        span.set_attr("attack", attack_name(mode_.attack));
        break;
      case InterceptMode::Kind::Failure:
        span.set_attr("failure", failure_name(mode_.failure));
        break;
      case InterceptMode::Kind::SpoofedCaProbe:
        span.set_attr("probe_root", mode_.probe_root->tbs.subject.common_name);
        break;
      case InterceptMode::Kind::OldVersionProbe:
        span.set_attr("forced_version", tls::version_name(mode_.old_version));
        break;
      case InterceptMode::Kind::UnknownCaProbe:
        break;
    }
    trace_->add(std::move(span));
  }

  tls::ServerConfig cfg;
  cfg.versions = {tls::ProtocolVersion::Ssl3_0, tls::ProtocolVersion::Tls1_0,
                  tls::ProtocolVersion::Tls1_1, tls::ProtocolVersion::Tls1_2,
                  tls::ProtocolVersion::Tls1_3};
  cfg.cipher_suites = permissive_suites();
  cfg.seed = common::fnv1a64("mitm:" + hostname);

  std::optional<ForgedIdentity> identity;
  switch (mode_.kind) {
    case InterceptMode::Kind::Attack:
      identity = forge_.forge(mode_.attack, hostname);
      break;
    case InterceptMode::Kind::Failure:
      identity = forge_.self_signed(hostname);
      cfg.silent_after_client_hello =
          mode_.failure == FailureKind::IncompleteHandshake;
      break;
    case InterceptMode::Kind::SpoofedCaProbe:
      identity = forge_.spoofed_ca_chain(*mode_.probe_root, hostname);
      break;
    case InterceptMode::Kind::UnknownCaProbe:
      identity = forge_.unknown_ca_chain(hostname);
      break;
    case InterceptMode::Kind::OldVersionProbe:
      // Keep the *genuine* server identity; only pin the version.
      cfg = cloud_->server_config(hostname);
      cfg.force_version = mode_.old_version;
      break;
  }
  if (identity) {
    cfg.chain = std::move(identity->chain);
    cfg.keys = std::move(identity->keys);
  }

  auto session = std::make_shared<tls::TlsServer>(cfg);
  sessions_.emplace_back(hostname, session);
  return session;
}

std::vector<Interception> Interceptor::drain() {
  std::vector<Interception> out;
  for (const auto& [hostname, session] : sessions_) {
    const tls::ServerObservation& obs = session->observation();
    Interception inter;
    inter.hostname = hostname;
    inter.saw_client_hello = obs.saw_client_hello;
    inter.client_hello = obs.client_hello;
    inter.handshake_complete = obs.handshake_complete;
    inter.recovered_plaintext = obs.client_plaintext;
    inter.alert_received = obs.alert_received;
    // `obs` is shadowed by the ServerObservation above; qualify fully.
    if (::iotls::obs::metrics_enabled() && inter.compromised()) {
      MitmMetrics::get().compromised.inc();
    }
    out.push_back(std::move(inter));
  }
  sessions_.clear();
  return out;
}

}  // namespace iotls::mitm
