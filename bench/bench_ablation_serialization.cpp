// Ablation (DESIGN.md §5.3): cost of the real wire serialization layer —
// message-level interception still pays full serialize+parse per record.
//
// Usage: bench_ablation_serialization [output.json]
//        (default ./BENCH_ablation_serialization.json)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fingerprint/database.hpp"
#include "tls/client.hpp"
#include "tls/messages.hpp"

namespace {

using namespace iotls;
using bench::time_ms;

// Calls per case: each costs about a microsecond, so this keeps a case
// near 100 ms while averaging away timer resolution.
constexpr std::size_t kIters = 100000;

tls::ClientHello sample_hello() {
  common::Rng rng(5);
  return tls::build_client_hello(
      fingerprint::reference_config("openssl"), "bench.example.com", rng);
}

double ns_per_op(double ms_per_op) { return ms_per_op * 1e6; }

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_ablation_serialization.json";
  const bool profiling = bench::profile_from_env();
  const obs::WallTimer total;

  std::vector<bench::Measurement> results;
  const auto record = [&](const std::string& name, double value) {
    results.push_back({name, value, "ns/op"});
    std::printf("%-34s %12.1f ns/op\n", name.c_str(), value);
  };

  std::printf("==== bench_ablation_serialization (iters=%zu) ====\n", kIters);
  const tls::ClientHello hello = sample_hello();
  const common::Bytes bytes = hello.serialize();

  record("BM_ClientHelloSerialize",
         ns_per_op(time_ms(kIters, [&](std::size_t) {
           volatile std::size_t sink = hello.serialize().size();
           (void)sink;
         })));
  record("BM_ClientHelloParse", ns_per_op(time_ms(kIters, [&](std::size_t) {
           volatile std::size_t sink =
               tls::ClientHello::parse(bytes).cipher_suites.size();
           (void)sink;
         })));
  record("BM_ClientHelloRoundTrip",
         ns_per_op(time_ms(kIters, [&](std::size_t) {
           const auto msg = tls::HandshakeMessage::wrap(
               tls::HandshakeType::ClientHello, hello);
           const tls::TlsRecord record{tls::ContentType::Handshake,
                                       tls::ProtocolVersion::Tls1_2,
                                       msg.serialize()};
           const auto parsed = tls::TlsRecord::parse(record.serialize());
           volatile std::size_t sink =
               tls::ClientHello::parse(
                   tls::HandshakeMessage::parse(parsed.payload).body)
                   .cipher_suites.size();
           (void)sink;
         })));
  record("BM_FingerprintOfHello",
         ns_per_op(time_ms(kIters, [&](std::size_t) {
           volatile std::size_t sink =
               fingerprint::fingerprint_of(hello).hash.size();
           (void)sink;
         })));

  if (!bench::write_bench_json(out_path, "ablation_serialization",
                               results.size(), total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  obs::emit_run_telemetry(
      "bench_ablation_serialization",
      {{"IOTLS_PROFILE", profiling ? "1" : "0"}, {"output", out_path}},
      stdout);
  return 0;
}
