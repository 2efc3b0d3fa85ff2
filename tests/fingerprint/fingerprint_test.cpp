#include "fingerprint/fingerprint.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fingerprint/database.hpp"
#include "fingerprint/graph.hpp"

namespace iotls::fingerprint {
namespace {

TEST(FingerprintTest, StableAcrossRandomness) {
  const auto cfg = reference_config("openssl");
  const auto fp1 = fingerprint_of_config(cfg);
  const auto fp2 = fingerprint_of_config(cfg);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1.hash.size(), 32u);
}

TEST(FingerprintTest, SensitiveToSuiteOrder) {
  auto cfg = reference_config("openssl");
  const auto fp1 = fingerprint_of_config(cfg);
  std::swap(cfg.cipher_suites[0], cfg.cipher_suites[1]);
  const auto fp2 = fingerprint_of_config(cfg);
  EXPECT_NE(fp1, fp2);
}

TEST(FingerprintTest, SensitiveToExtensions) {
  auto cfg = reference_config("openssl");
  const auto fp1 = fingerprint_of_config(cfg);
  cfg.request_ocsp_staple = true;
  EXPECT_NE(fp1, fingerprint_of_config(cfg));
}

TEST(FingerprintTest, InsensitiveToLibraryBehaviour) {
  // The fingerprint reads the ClientHello only; the library's alerting
  // behaviour is invisible (that's why WolfSSL-behaving devices can still
  // collide with the mbedtls-shaped reference entry).
  auto cfg = reference_config("mbedtls-client");
  const auto fp1 = fingerprint_of_config(cfg);
  cfg.library = tls::TlsLibrary::WolfSsl;
  EXPECT_EQ(fp1, fingerprint_of_config(cfg));
}

TEST(FingerprintTest, TextHasJa3FieldStructure) {
  const auto fp = fingerprint_of_config(reference_config("curl"));
  int commas = 0;
  for (char c : fp.text) commas += c == ',';
  EXPECT_EQ(commas, 4);  // version,ciphers,extensions,groups,sigalgs
}

TEST(DatabaseTest, ReferenceDbHasDistinctApplications) {
  const auto db = build_reference_db();
  EXPECT_GE(db.applications().size(), 7u);
  std::set<std::string> hashes;
  for (const auto& app : db.applications()) {
    for (const auto& fp : db.fingerprints_of(app)) hashes.insert(fp.hash);
  }
  EXPECT_GE(hashes.size(), 7u);
}

TEST(DatabaseTest, LookupRoundTrip) {
  const auto db = build_reference_db();
  const auto fp = fingerprint_of_config(reference_config("android-sdk"));
  EXPECT_EQ(db.fingerprints_of("android-sdk"), std::vector<Fingerprint>{fp});
  EXPECT_TRUE(db.fingerprints_of("no-such-app").empty());
}

TEST(DatabaseTest, UnknownConfigNotFound) {
  const auto db = build_reference_db();
  tls::ClientConfig odd;
  odd.cipher_suites = {0x1234, 0x5678};
  const auto odd_fp = fingerprint_of_config(odd);
  for (const auto& app : db.applications()) {
    for (const auto& fp : db.fingerprints_of(app)) EXPECT_NE(fp, odd_fp);
  }
  EXPECT_THROW(reference_config("nope"), std::out_of_range);
}

TEST(GraphTest, SharedFingerprintsAndPartners) {
  SharingGraph graph;
  const auto fp_shared = fingerprint_of_config(reference_config("openssl"));
  const auto fp_solo = fingerprint_of_config(reference_config("curl"));
  graph.add_use("LG TV", NodeKind::Device, fp_shared, true);
  graph.add_use("Wink Hub 2", NodeKind::Device, fp_shared);
  graph.add_use("openssl", NodeKind::Application, fp_shared);
  graph.add_use("Lonely Device", NodeKind::Device, fp_solo);

  EXPECT_EQ(graph.shared_fingerprints().size(), 1u);
  const auto partners = graph.sharing_partners("LG TV");
  EXPECT_EQ(partners, (std::set<std::string>{"Wink Hub 2", "openssl"}));
  EXPECT_TRUE(graph.sharing_partners("Lonely Device").empty());
  EXPECT_EQ(graph.clients_of(fp_shared).size(), 3u);
  EXPECT_TRUE(graph.is_dominant("LG TV", fp_shared));
  EXPECT_FALSE(graph.is_dominant("Wink Hub 2", fp_shared));
  EXPECT_EQ(graph.kind_of("openssl"), NodeKind::Application);
}

TEST(GraphTest, ClustersGroupViaSharedFingerprints) {
  SharingGraph graph;
  const auto fp_a = fingerprint_of_config(reference_config("openssl"));
  const auto fp_b = fingerprint_of_config(reference_config("apple-trustd"));
  graph.add_use("D1", NodeKind::Device, fp_a);
  graph.add_use("D2", NodeKind::Device, fp_a);
  graph.add_use("D3", NodeKind::Device, fp_b);
  graph.add_use("D4", NodeKind::Device, fp_b);
  graph.add_use("D5", NodeKind::Device,
                fingerprint_of_config(reference_config("curl")));

  const auto clusters = graph.clusters();
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 2u);
  EXPECT_EQ(clusters[1].size(), 2u);
}

TEST(GraphTest, UnknownClientThrows) {
  SharingGraph graph;
  EXPECT_THROW((void)graph.kind_of("ghost"), std::out_of_range);
}

}  // namespace
}  // namespace iotls::fingerprint
