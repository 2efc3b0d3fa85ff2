// Crypto benchmark lane: times the primitives the fast kernel accelerates
// (Montgomery modexp, RSA-CRT private ops, signature verification with and
// without memoisation, 512-bit key generation, SHA-256 streaming), the
// standard CA universe build from cold caches, plus a reduced full-study
// wall clock with caches on vs off, and writes the results as
// machine-readable JSON for CI trending.
//
// Knobs:
//   IOTLS_BENCH_ITERS        inner-loop repetitions (default 20; CI uses a
//                            smaller value for the smoke run)
//   IOTLS_BENCH_MIN_SPEEDUP  if > 0, exit non-zero unless the CRT+Montgomery
//                            2048-bit private op beats the seed path (plain
//                            square-and-multiply on d) by at least this
//                            factor — the CI regression gate
//   IOTLS_CRYPTO_CACHE       inherited by the library; the bench toggles the
//                            switch itself for the cached/uncached splits
//
// Usage: bench_crypto [output.json]   (default ./BENCH_crypto.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/study.hpp"
#include "crypto/bignum.hpp"
#include "crypto/cache.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "pki/universe.hpp"

namespace {

using iotls::bench::time_ms;
using iotls::common::Rng;
using iotls::crypto::BigUint;

/// Reduced-universe study (same shape as the determinism tests): enough
/// devices and months to exercise every cache, small enough to run in CI.
double reduced_study_wall_ms(const iotls::pki::CaUniverse& universe) {
  iotls::core::IotlsStudy::Options opts;
  opts.seed = 42;
  opts.threads = 1;
  opts.universe = &universe;
  opts.passive_scale = 0.01;
  opts.passive_first = iotls::common::Month{2019, 10};
  opts.passive_last = iotls::common::Month{2020, 3};
  iotls::core::IotlsStudy study(opts);
  const auto start = std::chrono::steady_clock::now();
  volatile std::size_t sink = study.render_table7().size();
  sink = sink + study.render_table9().size();
  (void)sink;
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_crypto.json";
  const auto iters = static_cast<std::size_t>(
      iotls::common::strict_env_long("IOTLS_BENCH_ITERS", 20));
  const long min_speedup =
      iotls::common::strict_env_long("IOTLS_BENCH_MIN_SPEEDUP", 0);
  const bool profiling = iotls::bench::profile_from_env();
  const iotls::obs::WallTimer total;

  std::vector<iotls::bench::Measurement> results;
  const auto record = [&](const std::string& name, double value,
                          const char* unit) {
    results.push_back({name, value, unit});
    std::printf("%-34s %12.4f %s\n", name.c_str(), value, unit);
  };

  std::printf("==== bench_crypto (iters=%zu) ====\n", iters);

  // --- 2048-bit private-op kernel: the acceptance-gated comparison. ---
  // Seed path = plain square-and-multiply on the full exponent d (what the
  // repo shipped before the Montgomery/CRT kernel). New path = rsa_private_op
  // with CRT factors, Montgomery inside each half-size modexp.
  Rng rng = Rng::derive(0xBE7C4, "bench-crypto");
  iotls::crypto::set_crypto_cache_enabled(false);  // time real work only
  const iotls::crypto::RsaKeyPair key2048 =
      iotls::crypto::rsa_generate(rng, 2048);
  const BigUint msg2048 =
      BigUint::random_bits(rng, 2040).mod(key2048.priv.n);

  const double plain_ms = time_ms(std::max<std::size_t>(iters / 4, 2), [&](std::size_t) {
    volatile std::size_t sink =
        msg2048.modexp_plain(key2048.priv.d, key2048.priv.n).bit_length();
    (void)sink;
  });
  record("private_op_2048_seed_path", plain_ms, "ms/op");

  const double mont_ms = time_ms(iters, [&](std::size_t) {
    volatile std::size_t sink =
        msg2048.modexp(key2048.priv.d, key2048.priv.n).bit_length();
    (void)sink;
  });
  record("private_op_2048_montgomery", mont_ms, "ms/op");

  const double crt_ms = time_ms(iters, [&](std::size_t) {
    volatile std::size_t sink =
        iotls::crypto::rsa_private_op(key2048.priv, msg2048).bit_length();
    (void)sink;
  });
  record("private_op_2048_crt", crt_ms, "ms/op");

  const double montgomery_speedup = plain_ms / mont_ms;
  const double crt_speedup = plain_ms / crt_ms;
  record("montgomery_speedup_2048", montgomery_speedup, "x");
  record("crt_speedup_2048", crt_speedup, "x");

  // --- 512-bit sign/verify: the study's working key size. ---
  const iotls::crypto::RsaKeyPair key512 =
      iotls::crypto::rsa_generate(rng, 512);
  const iotls::common::Bytes message = iotls::common::to_bytes(
      "bench-crypto: the quick brown fox signs the lazy dog");
  const iotls::common::Bytes signature =
      iotls::crypto::rsa_sign(key512.priv, message);

  record("sign_512", time_ms(iters * 4, [&](std::size_t) {
           volatile std::size_t sink =
               iotls::crypto::rsa_sign(key512.priv, message).size();
           (void)sink;
         }),
         "ms/op");
  record("verify_512_uncached", time_ms(iters * 4, [&](std::size_t) {
           volatile bool sink =
               iotls::crypto::rsa_verify(key512.pub, message, signature);
           (void)sink;
         }),
         "ms/op");

  // --- Key generation: 512-bit keypairs on this thread with caches still
  // off (ten per iteration: the candidate count per prime is geometric, so
  // a handful of keygens is mostly luck), then the standard CA universe
  // from cold caches at the default thread count (the median of several
  // builds: on a shared host the first builds after the serial lanes above
  // can start before every core is back at speed). ---
  record("keygen_512", time_ms(iters * 10, [&](std::size_t) {
           volatile std::size_t sink =
               iotls::crypto::rsa_generate(rng, 512).pub.n.bit_length();
           (void)sink;
         }),
         "ms/op");

  iotls::crypto::set_crypto_cache_enabled(true);
  std::vector<double> universe_ms;
  for (std::size_t i = 0; i < std::max<std::size_t>(iters / 4, 5); ++i) {
    iotls::crypto::crypto_caches_clear();
    const iotls::obs::WallTimer timer;
    const iotls::pki::CaUniverse standard;
    universe_ms.push_back(timer.elapsed_ms());
  }
  std::sort(universe_ms.begin(), universe_ms.end());
  record("universe_build_ms", universe_ms[universe_ms.size() / 2], "ms");

  iotls::crypto::crypto_caches_clear();
  (void)iotls::crypto::rsa_verify(key512.pub, message, signature);  // warm
  record("verify_512_cached", time_ms(iters * 4, [&](std::size_t) {
           volatile bool sink =
               iotls::crypto::rsa_verify(key512.pub, message, signature);
           (void)sink;
         }),
         "ms/op");

  // --- SHA-256 streaming throughput. ---
  const iotls::common::Bytes blob(1 << 20, 0xA5);
  const double sha_ms = time_ms(std::max<std::size_t>(iters, 8), [&](std::size_t) {
    volatile std::uint8_t sink = iotls::crypto::Sha256::digest(blob)[0];
    (void)sink;
  });
  record("sha256_1mib", sha_ms, "ms/op");
  record("sha256_throughput", 1000.0 / sha_ms, "MiB/s");

  // --- Reduced full-study wall clock, caches off vs on. ---
  // One shared universe built outside the timed region (cache-off study
  // construction would otherwise dominate with key generation).
  iotls::crypto::set_crypto_cache_enabled(true);
  iotls::crypto::crypto_caches_clear();
  iotls::pki::CaUniverse::Options uopts;
  uopts.common_count = 30;
  uopts.deprecated_count = 58;
  const iotls::pki::CaUniverse universe(uopts);

  iotls::crypto::set_crypto_cache_enabled(false);
  record("study_wall_cache_off", reduced_study_wall_ms(universe), "ms");
  iotls::crypto::set_crypto_cache_enabled(true);
  iotls::crypto::crypto_caches_clear();
  record("study_wall_cache_on", reduced_study_wall_ms(universe), "ms");

  // --- Emit JSON + observability artifacts. ---
  if (!iotls::bench::write_bench_json(out_path, "crypto", iters,
                                      total.elapsed_ms(), results)) {
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  iotls::bench::print_profile();
  iotls::bench::maybe_write_run_report(
      "bench_crypto",
      {{"IOTLS_BENCH_ITERS", std::to_string(iters)},
       {"IOTLS_BENCH_MIN_SPEEDUP", std::to_string(min_speedup)},
       {"IOTLS_PROFILE", profiling ? "1" : "0"},
       {"output", out_path}});

  if (min_speedup > 0 && crt_speedup < static_cast<double>(min_speedup)) {
    std::fprintf(stderr,
                 "error: crt_speedup_2048 = %.2fx is below the required "
                 "%ldx (IOTLS_BENCH_MIN_SPEEDUP)\n",
                 crt_speedup, min_speedup);
    return 1;
  }
  return 0;
}
