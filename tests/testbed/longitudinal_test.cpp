// Passive-dataset generator invariants.
#include "testbed/longitudinal.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "devices/catalog.hpp"
#include "obs/profile.hpp"
#include "pki/ca.hpp"
#include "pki/spoof.hpp"
#include "tls/client.hpp"
#include "tls/server.hpp"

namespace iotls::testbed {
namespace {

const PassiveDataset& small_dataset() {
  static const PassiveDataset data = [] {
    GeneratorOptions gen;
    gen.seed = 31337;
    gen.count_scale = 0.01;
    gen.first = common::Month{2018, 1};
    gen.last = common::Month{2018, 6};
    return generate_passive_dataset(gen);
  }();
  return data;
}

TEST(Generator, DeterministicPerSeed) {
  GeneratorOptions gen;
  gen.seed = 5;
  gen.count_scale = 0.01;
  gen.first = gen.last = common::Month{2018, 3};
  gen.devices = {"Wemo Plug", "Nest Thermostat"};
  const auto a = generate_passive_dataset(gen);
  const auto b = generate_passive_dataset(gen);
  ASSERT_EQ(a.groups().size(), b.groups().size());
  EXPECT_EQ(a.total_connections(), b.total_connections());
  EXPECT_EQ(dataset_to_tsv(a), dataset_to_tsv(b));
  // Absolute anchor over all 40 devices, active and passive-only: moves
  // only when a handshake, a count draw or the TSV rendering changes.
  EXPECT_EQ(common::hex_encode(crypto::Sha256::digest(
                common::to_bytes(dataset_to_tsv(small_dataset())))),
            "e22844e530baf43d9b8c09fa2b29f0414e84be215f4a5a3de7ca70d2960d73a0");
}

TEST(Generator, DeviceFilterRestrictsOutput) {
  GeneratorOptions gen;
  gen.seed = 6;
  gen.first = gen.last = common::Month{2018, 3};
  gen.devices = {"Wemo Plug"};
  const auto data = generate_passive_dataset(gen);
  EXPECT_EQ(data.devices(), std::vector<std::string>{"Wemo Plug"});
  EXPECT_EQ(data.device_connections("Nest Thermostat"), 0u);
  EXPECT_GT(data.device_connections("Wemo Plug"), 0u);
}

TEST(Generator, TrafficWeightScalesCounts) {
  // The LG TV pairing flow (weight 0.04) must carry far less traffic than
  // its api destination.
  GeneratorOptions gen;
  gen.seed = 7;
  gen.first = gen.last = common::Month{2019, 3};
  gen.devices = {"LG TV"};
  const auto data = generate_passive_dataset(gen);
  std::uint64_t api = 0;
  std::uint64_t pairing = 0;
  for (const auto& g : data.groups()) {
    if (g.record.destination == "api.lgtv-sim.com") api += g.count;
    if (g.record.destination == "device.lgtv-sim.com") pairing += g.count;
  }
  ASSERT_GT(api, 0u);
  ASSERT_GT(pairing, 0u);
  EXPECT_GT(api, pairing * 5);
}

TEST(Generator, RecordsCarryEstablishedParameters) {
  for (const auto& g : small_dataset().groups()) {
    EXPECT_FALSE(g.record.advertised_versions.empty()) << g.record.device;
    EXPECT_FALSE(g.record.advertised_suites.empty()) << g.record.device;
    if (g.record.handshake_complete) {
      EXPECT_TRUE(g.record.established_version.has_value());
      EXPECT_TRUE(g.record.established_suite.has_value());
    }
  }
}

TEST(Generator, ReplayIsCreditedToTheTestbed) {
  // Every device's capture runs under testbed/replay: no handshake of the
  // per-device fan-out sits directly under the root or a bare pool task.
  GeneratorOptions gen;
  gen.seed = 8;
  gen.count_scale = 0.01;
  gen.first = gen.last = common::Month{2018, 3};
  gen.devices = {"Wemo Plug", "Nest Thermostat", "Yi Camera"};
  gen.threads = 2;
  obs::profile_reset();
  obs::set_profile_enabled(true);
  (void)generate_passive_dataset(gen);
  const auto snapshot = obs::profile_snapshot();
  obs::set_profile_enabled(false);
  obs::profile_reset();

  std::uint64_t replays = 0;
  std::uint64_t tasks = 0;
  std::uint64_t connects = 0;
  const std::function<void(const obs::ProfileNode&)> walk =
      [&](const obs::ProfileNode& node) {
        if (node.name == "testbed/replay") replays += node.calls;
        if (node.name == "pool/task") tasks += node.calls;
        if (node.name == "tls/client_connect") connects += node.calls;
        if (node.name == "<root>" || node.name == "pool/task") {
          EXPECT_EQ(node.children.count("tls/client_connect"), 0u)
              << node.name;
        }
        for (const auto& [name, child] : node.children) walk(child);
      };
  walk(snapshot.root);
  EXPECT_EQ(replays, gen.devices.size());
  EXPECT_GT(tasks, 0u);
  EXPECT_GT(connects, 0u);
}

TEST(Tls13Suppression, BlindsTheProbeSideChannel) {
  // §6 limitation: with RFC 8446's optional alerts exercised, a validation
  // failure at TLS 1.3 produces no alert at all.
  common::Rng rng(404);
  pki::CertificateAuthority ca(x509::DistinguishedName::cn("Sup Root"), rng);
  const auto attacker = crypto::rsa_generate(rng, 512);
  pki::RootStore roots;
  roots.add(ca.root());

  tls::ServerConfig scfg;
  scfg.versions = {tls::ProtocolVersion::Tls1_2,
                   tls::ProtocolVersion::Tls1_3};
  scfg.cipher_suites = {tls::TLS_AES_128_GCM_SHA256};
  scfg.chain = {pki::make_self_signed_leaf("sup.example.com", attacker)};
  scfg.keys = attacker;
  scfg.seed = 1;

  tls::ClientConfig ccfg;
  ccfg.versions = {tls::ProtocolVersion::Tls1_2,
                   tls::ProtocolVersion::Tls1_3};
  ccfg.cipher_suites = {tls::TLS_AES_128_GCM_SHA256,
                        tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  ccfg.library = tls::TlsLibrary::OpenSsl;
  ccfg.tls13_suppress_alerts = true;

  auto server = std::make_shared<tls::TlsServer>(scfg);
  tls::Transport transport(server);
  tls::TlsClient client(ccfg, &roots, common::Rng(2),
                        common::SimDate{2021, 3, 1});
  const auto result = client.connect(transport, "sup.example.com");
  EXPECT_EQ(result.outcome, tls::HandshakeOutcome::ValidationFailed);
  EXPECT_FALSE(result.alert_sent.has_value());          // silent
  EXPECT_FALSE(server->observation().alert_received);   // probe sees nothing

  // The same client at TLS 1.2 still alerts — suppression is 1.3-specific.
  tls::ServerConfig scfg12 = scfg;
  scfg12.versions = {tls::ProtocolVersion::Tls1_2};
  scfg12.cipher_suites = {tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  auto server12 = std::make_shared<tls::TlsServer>(scfg12);
  tls::Transport transport12(server12);
  tls::ClientConfig ccfg12 = ccfg;
  ccfg12.cipher_suites = {tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  tls::TlsClient client12(ccfg12, &roots, common::Rng(3),
                          common::SimDate{2021, 3, 1});
  const auto result12 = client12.connect(transport12, "sup.example.com");
  EXPECT_EQ(result12.outcome, tls::HandshakeOutcome::ValidationFailed);
  EXPECT_TRUE(result12.alert_sent.has_value());
}

}  // namespace
}  // namespace iotls::testbed
