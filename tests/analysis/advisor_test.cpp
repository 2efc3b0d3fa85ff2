// §6 auditing-service tests: per-hello advisories and per-device audits.
#include "analysis/advisor.hpp"

#include <gtest/gtest.h>

#include "devices/catalog.hpp"
#include "fingerprint/fingerprint.hpp"

namespace iotls::analysis {
namespace {

testbed::Testbed& shared_testbed() {
  static testbed::Testbed tb = [] {
    testbed::Testbed::Options opts;
    opts.seed = 707;
    return testbed::Testbed(opts);
  }();
  return tb;
}

tls::ClientHello hello_of(const tls::ClientConfig& config) {
  common::Rng rng(1);
  return tls::build_client_hello(config, "audit.example.com", rng);
}

std::set<AdvisoryKind> kinds_of(const std::vector<Advisory>& advisories) {
  std::set<AdvisoryKind> kinds;
  for (const auto& a : advisories) kinds.insert(a.kind);
  return kinds;
}

TEST(Advisor, ModernCleanConfigGetsMinimalAdvisories) {
  tls::ClientConfig modern;
  modern.versions = {tls::ProtocolVersion::Tls1_2,
                     tls::ProtocolVersion::Tls1_3};
  modern.cipher_suites = {tls::TLS_AES_128_GCM_SHA256,
                          tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  modern.request_ocsp_staple = true;
  const auto advisories = audit_client_hello(hello_of(modern));
  EXPECT_TRUE(advisories.empty())
      << advisory_name(advisories.front().kind);
}

TEST(Advisor, WemoStyleHelloTriggersVersionAdvisory) {
  const auto* wemo = devices::find_device("Wemo Plug");
  const auto advisories =
      audit_client_hello(hello_of(wemo->instance("wemo-main").config));
  const auto kinds = kinds_of(advisories);
  EXPECT_TRUE(kinds.count(AdvisoryKind::DeprecatedVersionAdvertised));
  EXPECT_TRUE(kinds.count(AdvisoryKind::InsecureSuiteAdvertised));
  EXPECT_TRUE(kinds.count(AdvisoryKind::NoForwardSecrecy));
}

TEST(Advisor, OldVersionAcceptedVisibleOnlyViaSupportedVersions) {
  // A TLS 1.3 client lists every version in supported_versions, exposing
  // lingering 1.0/1.1 support to the auditor.
  tls::ClientConfig cfg;
  cfg.versions = {tls::ProtocolVersion::Tls1_0, tls::ProtocolVersion::Tls1_2,
                  tls::ProtocolVersion::Tls1_3};
  cfg.cipher_suites = {tls::TLS_AES_128_GCM_SHA256,
                       tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  const auto kinds = kinds_of(audit_client_hello(hello_of(cfg)));
  EXPECT_TRUE(kinds.count(AdvisoryKind::OldVersionAccepted));
  EXPECT_FALSE(kinds.count(AdvisoryKind::DeprecatedVersionAdvertised));

  // A pre-1.3 hello carries only its maximum — lingering old-version
  // support is invisible to a passive auditor, which is exactly why the
  // paper's Table 6 needs active negotiation probes.
  tls::ClientConfig legacy = cfg;
  legacy.versions = {tls::ProtocolVersion::Tls1_0,
                     tls::ProtocolVersion::Tls1_2};
  legacy.cipher_suites = {tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  const auto legacy_kinds = kinds_of(audit_client_hello(hello_of(legacy)));
  EXPECT_FALSE(legacy_kinds.count(AdvisoryKind::OldVersionAccepted));
}

TEST(Advisor, NullAnonDetected) {
  tls::ClientConfig cfg;
  cfg.cipher_suites = {tls::TLS_RSA_WITH_NULL_SHA,
                       tls::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256};
  const auto advisories = audit_client_hello(hello_of(cfg));
  const auto kinds = kinds_of(advisories);
  EXPECT_TRUE(kinds.count(AdvisoryKind::NullAnonSuiteAdvertised));
  // Detail names the suite.
  bool named = false;
  for (const auto& a : advisories) {
    if (a.kind == AdvisoryKind::NullAnonSuiteAdvertised &&
        a.detail.find("TLS_RSA_WITH_NULL_SHA") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST(Advisor, MissingSniDetected) {
  tls::ClientConfig cfg;
  cfg.send_sni = false;
  const auto kinds = kinds_of(audit_client_hello(hello_of(cfg)));
  EXPECT_TRUE(kinds.count(AdvisoryKind::MissingSni));
}

TEST(Advisor, AuditDeviceBootsAndAggregates) {
  auto& tb = shared_testbed();
  tb.set_date({2021, 3, 15});
  const auto report = audit_device(tb, "Wemo Plug");
  EXPECT_EQ(report.device, "Wemo Plug");
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.per_destination.size(), 2u);  // both destinations flagged
  const auto text = render_audit(report);
  EXPECT_NE(text.find("Wemo Plug"), std::string::npos);
  EXPECT_NE(text.find("deprecated-version-advertised"), std::string::npos);
}

TEST(Advisor, EveryActiveDeviceGetsAtLeastOneAdvisory) {
  // §5.1's takeaway in advisory form: no device in the 2021 testbed is
  // fully clean (even the best lack TLS 1.3 on some instance or skip
  // staple requests somewhere).
  auto& tb = shared_testbed();
  tb.set_date({2021, 3, 15});
  for (const auto& name : tb.device_names()) {
    const auto report = audit_device(tb, name);
    EXPECT_FALSE(report.clean()) << name;
  }
}

TEST(Advisor, RemediationTextForAllKinds) {
  for (const auto kind :
       {AdvisoryKind::DeprecatedVersionAdvertised,
        AdvisoryKind::OldVersionAccepted,
        AdvisoryKind::InsecureSuiteAdvertised,
        AdvisoryKind::NullAnonSuiteAdvertised,
        AdvisoryKind::NoForwardSecrecy, AdvisoryKind::MissingSni,
        AdvisoryKind::NoOcspStapleRequest, AdvisoryKind::NoTls13Support}) {
    EXPECT_FALSE(advisory_name(kind).empty());
    EXPECT_FALSE(advisory_remediation(kind).empty());
  }
}

}  // namespace
}  // namespace iotls::analysis
