// Issuance is a pure function of the request: the serial is the CA's
// prefix followed by a digest of the rest of the TBS, so identical
// requests give identical certificates in any order and from any thread,
// and requests that differ in any field get different serials.
#include "pki/ca.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "common/pool.hpp"
#include "crypto/cache.hpp"

namespace iotls::pki {
namespace {

/// One issuance request; `intermediate` issues a CA certificate instead of
/// a leaf.
struct Request {
  std::string name;
  const crypto::RsaKeyPair* key;
  x509::Validity validity;
  std::optional<x509::CertExtensions> extra;
  bool intermediate = false;
};

class IssuanceTest : public ::testing::Test {
 protected:
  IssuanceTest()
      : rng_(2718),
        ca_(x509::DistinguishedName{"Issuance Root CA", "Testing", "US"},
            rng_),
        key_a_(crypto::rsa_generate(rng_, 512)),
        key_b_(crypto::rsa_generate(rng_, 512)) {
    x509::CertExtensions ocsp;
    ocsp.ocsp_responder = "http://ocsp.example.com";
    x509::CertExtensions staple;
    staple.must_staple = true;
    const x509::Validity shorter{{2017, 1, 1}, {2023, 1, 1}};
    // Each request differs from the first in exactly one field.
    requests_ = {
        {"api.example.com", &key_a_, {}, std::nullopt},
        {"cdn.example.com", &key_a_, {}, std::nullopt},
        {"api.example.com", &key_b_, {}, std::nullopt},
        {"api.example.com", &key_a_, shorter, std::nullopt},
        {"api.example.com", &key_a_, {}, ocsp},
        {"api.example.com", &key_a_, {}, staple},
        {"Issuance Intermediate", &key_a_, {}, std::nullopt, true},
        {"Issuance Intermediate", &key_b_, {}, std::nullopt, true},
    };
  }

  [[nodiscard]] x509::Certificate issue(const Request& r) const {
    if (r.intermediate) {
      return ca_.issue_intermediate(
          x509::DistinguishedName{r.name, "Testing", "US"}, r.key->pub,
          r.validity);
    }
    return ca_.issue_server_cert(r.name, r.key->pub, r.validity,
                                 r.extra ? &*r.extra : nullptr);
  }

  common::Rng rng_;
  CertificateAuthority ca_;
  crypto::RsaKeyPair key_a_;
  crypto::RsaKeyPair key_b_;
  std::vector<Request> requests_;
};

TEST_F(IssuanceTest, IdenticalRequestsGiveIdenticalBytesFromAnyWorker) {
  std::vector<common::Bytes> reference;
  for (const auto& r : requests_) reference.push_back(issue(r).serialize());

  // Four workers issue every request cold, each in its own rotation of the
  // request order, so the same TBS is signed concurrently and in every
  // position.
  crypto::crypto_caches_clear();
  constexpr std::size_t kWorkers = 4;
  const std::size_t n = requests_.size();
  std::vector<std::vector<common::Bytes>> issued(
      kWorkers, std::vector<common::Bytes>(n));
  common::parallel_for(kWorkers, kWorkers, [&](std::size_t w) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (k + w * 3) % n;
      issued[w][i] = issue(requests_[i]).serialize();
    }
  });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(issued[w], reference) << "worker " << w;
  }
}

TEST_F(IssuanceTest, RequestsThatDifferGetDifferentSerials) {
  std::set<std::string> serials;
  for (const auto& r : requests_) {
    serials.insert(common::hex_encode(issue(r).tbs.serial));
  }
  EXPECT_EQ(serials.size(), requests_.size());
}

TEST_F(IssuanceTest, SerialIsThePrefixThenEightDigestBytes) {
  // The root's serial is the CA's 8-byte prefix alone.
  const common::Bytes& prefix = ca_.root().tbs.serial;
  ASSERT_EQ(prefix.size(), 8u);
  for (const auto& r : requests_) {
    const common::Bytes serial = issue(r).tbs.serial;
    ASSERT_EQ(serial.size(), 16u) << r.name;
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), serial.begin()))
        << r.name;
  }
}

TEST_F(IssuanceTest, IssuedCertificatesVerifyUnderTheRoot) {
  for (const auto& r : requests_) {
    const x509::Certificate cert = issue(r);
    EXPECT_TRUE(crypto::rsa_verify(ca_.keypair().pub, cert.tbs.serialize(),
                                   cert.signature))
        << r.name;
  }
}

}  // namespace
}  // namespace iotls::pki
