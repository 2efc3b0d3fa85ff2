// Session-resumption lane: full handshakes versus RFC 5077 ticket-resumed
// ones against the same 1024-bit server identity, one connection at a
// time. A resumed handshake skips the certificate chain, its validation
// and the RSA private operation, so the ratio measures what the ticket
// path saves. A last row times one ticket seal+unseal, the symmetric work
// the server adds to each resumption. Results land in BENCH_resume.json
// for CI trending.
//
// Knobs:
//   IOTLS_BENCH_CONNS              handshakes per lane (default 1024)
//   IOTLS_BENCH_MIN_RESUMED_RATIO  if > 0, exit non-zero unless resumed
//                                  handshakes beat full ones by this
//                                  factor (target: 3x)
//
// Usage: bench_resume [output.json]   (default ./BENCH_resume.json)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "pki/ca.hpp"
#include "tls/client.hpp"
#include "tls/secrets.hpp"
#include "tls/server.hpp"
#include "tls/transport.hpp"
#include "x509/certificate.hpp"

namespace {

using iotls::common::Rng;

constexpr iotls::common::SimDate kNow{2021, 3, 1};

/// Seal+unseal round trips timed for the ticket row.
constexpr std::size_t kTicketIters = 4096;

/// Shared handshake material: one CA, one 1024-bit server identity (the
/// study's upper working key size), ticket-capable client config.
struct BenchContext {
  Rng rng{0xE41E};
  iotls::pki::CertificateAuthority ca{
      iotls::x509::DistinguishedName::cn("Bench Resume Root"), rng};
  iotls::crypto::RsaKeyPair keys = iotls::crypto::rsa_generate(rng, 1024);
  iotls::pki::RootStore roots;
  iotls::tls::ServerConfig server_cfg;
  iotls::tls::ClientConfig client_cfg;

  BenchContext() {
    roots.add(ca.root());
    server_cfg.chain = {
        ca.issue_server_cert("resume.bench.example", keys.pub)};
    server_cfg.keys = keys;
    server_cfg.seed = 11;
    client_cfg.session_ticket = true;
  }

  [[nodiscard]] std::shared_ptr<iotls::tls::TlsServer> make_server() const {
    return std::make_shared<iotls::tls::TlsServer>(server_cfg);
  }

  [[nodiscard]] iotls::tls::TlsClient make_client(std::uint64_t seed) const {
    return iotls::tls::TlsClient(client_cfg, &roots, Rng(seed), kNow);
  }
};

/// Handshakes/sec for `conns` one-at-a-time connections; exits non-zero
/// unless every handshake succeeds.
double handshake_rate(const BenchContext& ctx, std::size_t conns,
                      const iotls::tls::ResumptionState* resume) {
  std::size_t successes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < conns; ++i) {
    auto client = ctx.make_client(1000 + i);
    iotls::tls::Transport transport(ctx.make_server());
    if (client.connect(transport, "resume.bench.example", {}, resume)
            .success()) {
      ++successes;
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (successes != conns) {
    std::fprintf(stderr, "error: %zu/%zu handshakes succeeded\n", successes,
                 conns);
    std::exit(1);
  }
  return static_cast<double>(conns) / elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_resume.json";
  const auto conns = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_CONNS", 1024));
  const long min_resumed_ratio =
      iotls::common::strict_env_long("IOTLS_BENCH_MIN_RESUMED_RATIO", 0);
  const bool profiling = iotls::bench::profile_from_env();
  const iotls::obs::WallTimer total;

  std::vector<iotls::bench::Measurement> results;
  const auto record = [&](const std::string& name, double value,
                          const char* unit) {
    results.push_back({name, value, unit});
    std::printf("%-34s %12.2f %s\n", name.c_str(), value, unit);
  };

  std::printf("==== bench_resume (conns=%zu) ====\n", conns);

  BenchContext ctx;
  const double full = handshake_rate(ctx, conns, nullptr);
  record("full_handshakes_per_sec", full, "hs/s");

  auto seed_client = ctx.make_client(7);
  iotls::tls::Transport seed_transport(ctx.make_server());
  const auto seeded =
      seed_client.connect(seed_transport, "resume.bench.example");
  if (!seeded.success() || !seeded.resumption.has_value()) {
    std::fprintf(stderr, "error: could not seed a resumption ticket\n");
    return 1;
  }
  const double resumed = handshake_rate(ctx, conns, &*seeded.resumption);
  record("resumed_handshakes_per_sec", resumed, "hs/s");
  const double resumed_ratio = resumed / full;
  record("resumed_vs_full", resumed_ratio, "x");

  const auto ticket_key =
      iotls::common::to_bytes("ticket-key-material-32-bytes!!!!");
  const auto master = iotls::common::to_bytes(
      "master-secret-material-48-bytes-aaaaaaaaaaaaaaa");
  const double seal_unseal_ms =
      iotls::bench::time_ms(kTicketIters, [&](std::size_t) {
        const auto ticket =
            iotls::tls::seal_ticket(ticket_key, 0xC02F, master);
        volatile bool sink =
            iotls::tls::unseal_ticket(ticket_key, ticket).has_value();
        (void)sink;
      });
  record("ticket_seal_unseal", 1000.0 * seal_unseal_ms, "us/op");

  if (!iotls::bench::write_bench_json(out_path, "resume", conns,
                                      total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  iotls::bench::print_profile();
  iotls::bench::maybe_write_run_report(
      "bench_resume",
      {{"IOTLS_BENCH_CONNS", std::to_string(conns)},
       {"IOTLS_BENCH_MIN_RESUMED_RATIO", std::to_string(min_resumed_ratio)},
       {"IOTLS_PROFILE", profiling ? "1" : "0"},
       {"output", out_path}});

  if (min_resumed_ratio > 0 &&
      resumed_ratio < static_cast<double>(min_resumed_ratio)) {
    std::fprintf(stderr,
                 "error: resumed_vs_full = %.2fx is below the required "
                 "%ldx (IOTLS_BENCH_MIN_RESUMED_RATIO)\n",
                 resumed_ratio, min_resumed_ratio);
    return 1;
  }
  return 0;
}
