// Ablation (DESIGN.md §5.1): probe-path crypto cost vs RSA modulus size.
//
// The spoofed-CA probe signs one forged leaf and the client verifies it;
// this lane quantifies why the simulation defaults to 512-bit moduli.
// Exits non-zero if a forged chain ever stops failing with BadSignature.
//
// Usage: bench_ablation_keysize [output.json]
//        (default ./BENCH_ablation_keysize.json)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "crypto/rsa.hpp"
#include "pki/ca.hpp"
#include "pki/spoof.hpp"
#include "x509/verify.hpp"

namespace {

using namespace iotls;
using bench::time_ms;

constexpr std::size_t kBits[] = {448, 512, 768, 1024};

// Calls per (case, modulus size).
constexpr std::size_t kKeygenIters = 20;
constexpr std::size_t kSignIters = 400;
constexpr std::size_t kVerifyIters = 20000;
constexpr std::size_t kProbeIters = 300;

constexpr const char* kMessage = "to-be-signed certificate body";

double keygen_ms(std::size_t bits) {
  return time_ms(kKeygenIters, [&](std::size_t i) {
    common::Rng rng(1 + i);
    volatile std::size_t sink =
        crypto::rsa_generate(rng, bits).pub.n.bit_length();
    (void)sink;
  });
}

double sign_us(std::size_t bits) {
  common::Rng rng(7);
  const auto keys = crypto::rsa_generate(rng, bits);
  const auto msg = common::to_bytes(kMessage);
  return 1000.0 * time_ms(kSignIters, [&](std::size_t) {
           volatile std::size_t sink = crypto::rsa_sign(keys.priv, msg).size();
           (void)sink;
         });
}

double verify_us(std::size_t bits) {
  common::Rng rng(9);
  const auto keys = crypto::rsa_generate(rng, bits);
  const auto msg = common::to_bytes(kMessage);
  const auto sig = crypto::rsa_sign(keys.priv, msg);
  return 1000.0 * time_ms(kVerifyIters, [&](std::size_t) {
           volatile bool sink = crypto::rsa_verify(keys.pub, msg, sig);
           (void)sink;
         });
}

// One full probe payload: spoof a root + forge a leaf + verify the chain
// (exactly what each of the ~3,300 Table 9 probes pays).
double probe_payload_ms(std::size_t bits) {
  common::Rng rng(11);
  pki::CertificateAuthority real_ca(
      x509::DistinguishedName::cn("Ablation Root"), rng, x509::Validity{},
      bits);
  const auto attacker = crypto::rsa_generate(rng, bits);
  const std::vector<x509::Certificate> anchors = {real_ca.root()};
  return time_ms(kProbeIters, [&](std::size_t) {
    const auto spoofed = pki::make_spoofed_ca(real_ca.root(), attacker);
    const auto chain = pki::forge_chain(spoofed, attacker.priv,
                                        "victim.example.com", attacker.pub);
    const auto result = x509::verify_chain(chain, "victim.example.com",
                                           anchors, {2021, 3, 1});
    if (result.error != x509::VerifyError::BadSignature) {
      std::fprintf(stderr, "error: %zu-bit spoofed probe did not fail with "
                   "BadSignature\n", bits);
      std::exit(1);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_ablation_keysize.json";
  const bool profiling = bench::profile_from_env();
  const obs::WallTimer total;

  std::vector<bench::Measurement> results;
  const auto record = [&](const std::string& name, std::size_t bits,
                          double value, const char* unit) {
    results.push_back({name + "/" + std::to_string(bits), value, unit});
    std::printf("%-34s %12.3f %s\n", results.back().name.c_str(), value,
                unit);
  };

  std::printf("==== bench_ablation_keysize ====\n");
  for (const std::size_t bits : kBits) {
    record("BM_RsaKeygen", bits, keygen_ms(bits), "ms/op");
  }
  for (const std::size_t bits : kBits) {
    record("BM_RsaSign", bits, sign_us(bits), "us/op");
  }
  for (const std::size_t bits : kBits) {
    record("BM_RsaVerify", bits, verify_us(bits), "us/op");
  }
  for (const std::size_t bits : kBits) {
    record("BM_SpoofedProbePayload", bits, probe_payload_ms(bits), "ms/op");
  }

  if (!bench::write_bench_json(out_path, "ablation_keysize", results.size(),
                               total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  obs::emit_run_telemetry(
      "bench_ablation_keysize",
      {{"IOTLS_PROFILE", profiling ? "1" : "0"}, {"output", out_path}},
      stdout);
  return 0;
}
