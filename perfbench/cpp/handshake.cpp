// `handshake`: tls and crypto in isolation. A closed loop of kThreads client
// threads runs back-to-back in-memory handshakes against 512-bit server
// identities (the study's key size), cycling through the six Table 4
// library profiles. Each cycle is a full handshake, a handshake resumed
// with the ticket the full one earned, and a spoofed-CA handshake the
// client must reject (the root-store probe's unit of work, §4.2). The
// resumed path skips RSA, modexp and chain validation, so a modexp change
// should move full and rejected latency and leave resumed latency flat.
#include <array>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "pki/ca.hpp"
#include "pki/spoof.hpp"
#include "tls/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using iotls::tls::TlsLibrary;

constexpr iotls::common::SimDate kNow{2021, 3, 1};
constexpr const char* kHost = "device-cloud.example.com";
/// Cycles per client thread in one batch (one unit of the loop).
constexpr std::size_t kCyclesPerBatch = 250;
constexpr std::array<HandshakeKind, 3> kKinds = {
    HandshakeKind::Full, HandshakeKind::Resumed, HandshakeKind::Rejected};

/// The server identities every client thread dials, derived from the
/// benchmark seed.
struct Identities {
  iotls::pki::RootStore roots;
  iotls::tls::ServerConfig genuine;
  iotls::tls::ServerConfig spoofed;

  explicit Identities(std::uint64_t seed) {
    iotls::common::Rng rng(iotls::common::split_seed(seed, "handshake"));
    const iotls::pki::CertificateAuthority ca(
        iotls::x509::DistinguishedName::cn("Perfbench Trusted Root"), rng);
    roots.add(ca.root());
    const auto server_keys = iotls::crypto::rsa_generate(rng);
    genuine.chain = {ca.issue_server_cert(kHost, server_keys.pub)};
    genuine.keys = server_keys;

    const auto attacker = iotls::crypto::rsa_generate(rng);
    const auto spoofed_ca = iotls::pki::make_spoofed_ca(ca.root(), attacker);
    spoofed.chain =
        iotls::pki::forge_chain(spoofed_ca, attacker.priv, kHost, attacker.pub);
    spoofed.keys = attacker;
  }
};

/// What one client thread saw in one batch.
struct ThreadLog {
  std::array<std::vector<double>, 3> latency_ms;  // by HandshakeKind
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few
};

void client_thread(const Identities& ids, std::uint64_t seed,
                   std::size_t batch, std::size_t thread, SpanRecorder& spans,
                   std::uint64_t batch_span, ThreadLog& log) {
  const auto& libraries = iotls::tls::table4_libraries();
  // The ticket key is derived from the server seed: one identity per
  // client thread, so each thread resumes against its own server.
  auto genuine = ids.genuine;
  genuine.seed = iotls::common::split_seed(seed, thread);
  auto spoofed = ids.spoofed;
  spoofed.seed = genuine.seed;

  for (std::size_t c = 0; c < kCyclesPerBatch; ++c) {
    const TlsLibrary library = libraries[(c + thread) % libraries.size()];
    const std::uint64_t op_base =
        ((batch * kThreads + thread) * kCyclesPerBatch + c) * kKinds.size();
    std::optional<iotls::tls::ResumptionState> ticket;
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      const HandshakeKind kind = kKinds[k];
      const std::uint64_t op = op_base + k;
      iotls::tls::ClientConfig config;
      config.library = library;
      config.session_ticket = kind != HandshakeKind::Rejected;
      iotls::tls::TlsClient client(
          config, &ids.roots,
          iotls::common::Rng(iotls::common::split_seed(seed, op)), kNow);

      const std::uint64_t start = now_ns();
      iotls::tls::ClientResult result;
      {
        const ScopedSpan span(spans, "tls." + kind_name(kind), op, batch_span);
        iotls::tls::Transport transport(std::make_shared<iotls::tls::TlsServer>(
            kind == HandshakeKind::Rejected ? spoofed : genuine));
        const iotls::tls::ResumptionState* resume =
            kind == HandshakeKind::Resumed && ticket ? &*ticket : nullptr;
        result = client.connect(transport, kHost, {}, resume);
      }
      log.latency_ms[k].push_back(ms_between(start, now_ns()));

      ++log.attempted;
      if (!handshake_ok(kind, library, result) && ++log.failed <= 20) {
        log.failures.push_back("handshake " + std::to_string(op) + " (" +
                               kind_name(kind) + ", " +
                               iotls::tls::library_name(library) + "): " +
                               iotls::tls::outcome_name(result.outcome));
      }
      if (kind == HandshakeKind::Full) ticket = result.resumption;
    }
  }
}

}  // namespace

std::vector<Unit> run_handshake(const Context& ctx, RunResult& result) {
  SpanRecorder& spans = *ctx.spans;
  const Identities ids(ctx.seed);
  std::array<std::vector<double>, 3> latency_ms;  // untraced units only
  double ops = 0.0;

  auto units = run_units(ctx, [&](std::size_t input, bool traced,
                                  Unit& unit) {
    std::vector<ThreadLog> logs(kThreads);
    const std::uint64_t start = now_ns();
    {
      const ScopedSpan batch(spans, "handshake.batch", input);
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back(client_thread, std::cref(ids), ctx.seed, input,
                             t, std::ref(spans), batch.id(),
                             std::ref(logs[t]));
      }
      for (auto& thread : threads) thread.join();
    }
    const double wall_ms = ms_between(start, now_ns());

    // A cycle's stages: the batch's median latency of each handshake kind.
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      std::vector<double> batch;
      for (const ThreadLog& log : logs) {
        batch.insert(batch.end(), log.latency_ms[k].begin(),
                     log.latency_ms[k].end());
      }
      unit.values["stage." + kind_name(kKinds[k])] = median(std::move(batch));
    }
    for (const ThreadLog& log : logs) {
      result.attempted += log.attempted;
      result.failed += log.failed;
      for (const auto& failure : log.failures) {
        if (result.failures.size() < 20) result.failures.push_back(failure);
      }
      if (traced || unit.repeat) continue;
      ops += static_cast<double>(log.attempted);
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        latency_ms[k].insert(latency_ms[k].end(), log.latency_ms[k].begin(),
                             log.latency_ms[k].end());
      }
    }
    return wall_ms;
  });

  const double seconds = untraced_seconds(units);
  add_unit_cost(result, units);
  result.add("handshakes_per_s", ops / seconds);
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const std::string name = kind_name(kKinds[k]) + "_hs_";
    for (const auto& [q, suffix] :
         {std::pair{0.5, "ms_p50"}, {0.99, "ms_p99"}}) {
      const auto value = percentile(latency_ms[k], q);
      result.attempt(value.has_value(),
                     name + suffix + ": too few samples for the percentile");
      result.add(name + suffix, value.value_or(0.0));
    }
    result.add(name + "samples", static_cast<double>(latency_ms[k].size()));
  }
  if (ctx.trace) {
    for (Unit& unit : units) {
      if (!unit.traced) continue;
      const double offers =
          family_total(unit.registry, "iotls_tls_resumptions_total");
      const double accepted =
          unit.registry["iotls_tls_resumptions_total{result=\"accepted\"}"];
      unit.values["tls.resume_offers"] = offers;
      unit.values["tls.resume_accept_frac"] =
          offers > 0.0 ? accepted / offers : 0.0;
    }
    add_traced(result, units, "tls.resume_accept_frac");
    add_traced(result, units, "tls.resume_offers");
  }
  return units;
}

}  // namespace perfbench
