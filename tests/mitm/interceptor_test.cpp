// Interceptor unit behaviours: modes, passthrough, observation draining.
#include "mitm/interceptor.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string_view>

#include "crypto/cache.hpp"
#include "mitm/runner.hpp"
#include "obs/profile.hpp"
#include "testbed/testbed.hpp"

namespace iotls::mitm {
namespace {

constexpr common::SimDate kNow{2021, 3, 15};

testbed::Testbed& shared_testbed() {
  static testbed::Testbed tb = [] {
    testbed::Testbed::Options opts;
    opts.seed = 606;
    return testbed::Testbed(opts);
  }();
  return tb;
}

TEST(InterceptorTest, DrainClearsSessions) {
  auto& tb = shared_testbed();
  tb.set_date(kNow);
  Interceptor interceptor(tb.universe(), tb.cloud());
  interceptor.set_mode(InterceptMode::make_attack(AttackKind::NoValidation));
  interceptor.install(tb.network());
  (void)tb.runtime("Wemo Plug").boot(kNow);
  interceptor.uninstall(tb.network());

  const auto first = interceptor.drain();
  EXPECT_EQ(first.size(), 2u);  // Wemo has two destinations
  EXPECT_TRUE(interceptor.drain().empty());
}

TEST(InterceptorTest, ObservationCarriesClientHello) {
  auto& tb = shared_testbed();
  tb.set_date(kNow);
  Interceptor interceptor(tb.universe(), tb.cloud());
  interceptor.set_mode(InterceptMode::make_attack(AttackKind::NoValidation));
  interceptor.install(tb.network());
  (void)tb.runtime("Wemo Plug").boot(kNow);
  interceptor.uninstall(tb.network());

  for (const auto& inter : interceptor.drain()) {
    EXPECT_TRUE(inter.saw_client_hello);
    ASSERT_TRUE(inter.client_hello.has_value());
    EXPECT_EQ(inter.client_hello->max_advertised_version(),
              tls::ProtocolVersion::Tls1_0);
    // Wemo validates strictly → no compromise.
    EXPECT_FALSE(inter.compromised());
  }
}

TEST(InterceptorTest, NoValidationDeviceIsCompromisedWithPlaintext) {
  auto& tb = shared_testbed();
  tb.set_date(kNow);
  Interceptor interceptor(tb.universe(), tb.cloud());
  interceptor.set_mode(InterceptMode::make_attack(AttackKind::NoValidation));
  interceptor.install(tb.network());
  (void)tb.runtime("Zmodo Doorbell").boot(kNow);
  interceptor.uninstall(tb.network());

  const auto interceptions = interceptor.drain();
  ASSERT_EQ(interceptions.size(), 6u);
  bool key_leaked = false;
  for (const auto& inter : interceptions) {
    EXPECT_TRUE(inter.compromised()) << inter.hostname;
    if (common::to_string(inter.recovered_plaintext).find("encrypt_key") !=
        std::string::npos) {
      key_leaked = true;
    }
  }
  EXPECT_TRUE(key_leaked);  // §5.2 Zmodo finding
}

TEST(InterceptorTest, PassthroughHostsReachRealServer) {
  auto& tb = shared_testbed();
  tb.set_date(kNow);
  Interceptor interceptor(tb.universe(), tb.cloud());
  interceptor.set_mode(InterceptMode::make_attack(AttackKind::NoValidation));
  interceptor.set_passthrough({"svc00.wemo-sim.com"});
  interceptor.install(tb.network());
  auto& wemo = tb.runtime("Wemo Plug");
  wemo.reset_failure_state();
  const auto boot = wemo.boot(kNow);
  interceptor.uninstall(tb.network());
  interceptor.clear_passthrough();

  ASSERT_EQ(boot.connections.size(), 2u);
  EXPECT_TRUE(boot.connections[0].result.success());    // passed through
  EXPECT_FALSE(boot.connections[1].result.success());   // intercepted
  // Only the intercepted host shows up in the drain.
  const auto interceptions = interceptor.drain();
  ASSERT_EQ(interceptions.size(), 1u);
  EXPECT_EQ(interceptions[0].hostname, "svc01.wemo-sim.com");
}

TEST(InterceptorTest, SpoofedVsUnknownProbesTriggerDistinctAlerts) {
  auto& tb = shared_testbed();
  tb.set_date(kNow);
  Interceptor interceptor(tb.universe(), tb.cloud());
  auto& ghm = tb.runtime("Google Home Mini");
  const auto trusted_root = ghm.root_store().roots().front();

  interceptor.set_mode(InterceptMode::unknown_ca());
  interceptor.install(tb.network());
  (void)ghm.connect_to(ghm.profile().destinations.front(), kNow);
  const auto unknown = interceptor.drain();
  interceptor.uninstall(tb.network());
  ghm.reset_failure_state();

  interceptor.set_mode(InterceptMode::spoofed_ca(trusted_root));
  interceptor.install(tb.network());
  (void)ghm.connect_to(ghm.profile().destinations.front(), kNow);
  const auto spoofed = interceptor.drain();
  interceptor.uninstall(tb.network());
  ghm.reset_failure_state();

  ASSERT_EQ(unknown.size(), 1u);
  ASSERT_EQ(spoofed.size(), 1u);
  ASSERT_TRUE(unknown[0].alert_received.has_value());
  ASSERT_TRUE(spoofed[0].alert_received.has_value());
  EXPECT_EQ(unknown[0].alert_received->description,
            tls::AlertDescription::UnknownCa);
  EXPECT_EQ(spoofed[0].alert_received->description,
            tls::AlertDescription::DecryptError);
}

TEST(InterceptorTest, OldVersionProbeKeepsGenuineIdentity) {
  auto& tb = shared_testbed();
  tb.set_date(kNow);
  Interceptor interceptor(tb.universe(), tb.cloud());
  interceptor.set_mode(
      InterceptMode::make_old_version(tls::ProtocolVersion::Tls1_0));
  interceptor.install(tb.network());
  auto& wemo = tb.runtime("Wemo Plug");
  wemo.reset_failure_state();
  const auto boot = wemo.boot(kNow);
  interceptor.uninstall(tb.network());

  // The handshake *completes* at TLS 1.0 because the certificate is the
  // real one — the essence of the Table 6 probe.
  for (const auto& conn : boot.connections) {
    EXPECT_TRUE(conn.result.success()) << conn.destination->hostname;
    EXPECT_EQ(conn.result.negotiated_version, tls::ProtocolVersion::Tls1_0);
  }
}

TEST(InterceptorTest, ForgeProducesHostSpecificChains) {
  auto& tb = shared_testbed();
  const AttackForge& forge = [&]() -> const AttackForge& {
    static Interceptor interceptor(tb.universe(), tb.cloud());
    return interceptor.forge();
  }();
  const auto a = forge.forge(AttackKind::NoValidation, "a.example.com");
  const auto b = forge.forge(AttackKind::NoValidation, "b.example.com");
  EXPECT_TRUE(a.chain[0].matches_hostname("a.example.com"));
  EXPECT_TRUE(b.chain[0].matches_hostname("b.example.com"));
  EXPECT_FALSE(a.chain[0].matches_hostname("b.example.com"));
}

TEST(InterceptorTest, ForgeryIsCreditedToMitm) {
  // Every RSA private-key operation of an active experiment is credited to
  // a layer: forged chains to mitm/forge, handshake signatures to tls/*,
  // the sandboxes' cloud-farm certificates to pki/*. None sits directly
  // under the root or a bare pool task.
  auto& tb = shared_testbed();
  tb.set_date(kNow);
  crypto::crypto_caches_clear();
  obs::profile_reset();
  obs::set_profile_enabled(true);
  {
    Interceptor interceptor(tb.universe(), tb.cloud());
    auto& ghm = tb.runtime("Google Home Mini");
    const auto trusted_root = ghm.root_store().roots().front();
    std::vector<InterceptMode> modes = {
        InterceptMode::unknown_ca(), InterceptMode::spoofed_ca(trusted_root),
        InterceptMode::make_failure(FailureKind::FailedHandshake)};
    for (const AttackKind kind : all_attacks()) {
      modes.push_back(InterceptMode::make_attack(kind));
    }
    for (const InterceptMode& mode : modes) {
      interceptor.set_mode(mode);
      interceptor.install(tb.network());
      (void)tb.runtime("Zmodo Doorbell").boot(kNow);
      (void)ghm.connect_to(ghm.profile().destinations.front(), kNow);
      interceptor.uninstall(tb.network());
      (void)interceptor.drain();
      ghm.reset_failure_state();
      tb.runtime("Zmodo Doorbell").reset_failure_state();
    }
  }
  (void)run_downgrade_experiments(tb.options(), 2);
  const obs::ProfileSnapshot snap = obs::profile_snapshot();
  obs::set_profile_enabled(false);
  obs::profile_reset();

  std::uint64_t forge_signatures = 0;
  const std::function<void(const obs::ProfileNode&)> walk =
      [&](const obs::ProfileNode& node) {
        const auto it = node.children.find("crypto/rsa_private_op");
        if (it != node.children.end()) {
          const std::string_view parent = node.name;
          EXPECT_TRUE(parent == "mitm/forge" || parent.starts_with("tls/") ||
                      parent.starts_with("pki/"))
              << it->second.calls << " private ops under " << parent;
          if (parent == "mitm/forge") forge_signatures += it->second.calls;
        }
        for (const auto& [name, child] : node.children) walk(child);
      };
  walk(snap.root);
  EXPECT_GT(forge_signatures, 0u);
}

}  // namespace
}  // namespace iotls::mitm
