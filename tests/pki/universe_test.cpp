#include "pki/universe.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <string>

#include "common/hex.hpp"
#include "common/pool.hpp"
#include "crypto/cache.hpp"
#include "crypto/sha256.hpp"
#include "obs/profile.hpp"
#include "obs/zone_calls.hpp"

namespace iotls::pki {
namespace {

// The shared standard universe: built once for the whole test binary.
const CaUniverse& U() { return CaUniverse::standard(); }

TEST(CaUniverse, ProbeSetSizesMatchPaper) {
  // Table 9 header: 122 common, 87 deprecated.
  EXPECT_EQ(U().common_ca_names().size(), 122u);
  EXPECT_EQ(U().deprecated_ca_names().size(), 87u);
}

TEST(CaUniverse, CommonAndDeprecatedAreDisjoint) {
  const std::set<std::string> common(U().common_ca_names().begin(),
                                     U().common_ca_names().end());
  for (const auto& name : U().deprecated_ca_names()) {
    EXPECT_EQ(common.count(name), 0u) << name;
  }
}

TEST(CaUniverse, HistoriesMatchTable3Shape) {
  const auto& hs = U().histories();
  ASSERT_EQ(hs.size(), 4u);
  std::map<std::string, std::pair<std::size_t, int>> expected = {
      {"Ubuntu", {9, 2012}},
      {"Android", {10, 2010}},
      {"Mozilla", {47, 2013}},
      {"Microsoft", {15, 2017}},
  };
  for (const auto& h : hs) {
    ASSERT_TRUE(expected.count(h.platform)) << h.platform;
    EXPECT_EQ(h.versions.size(), expected[h.platform].first) << h.platform;
    EXPECT_EQ(h.earliest().year, expected[h.platform].second) << h.platform;
  }
}

TEST(CaUniverse, DistrustedCAsAreDeprecated) {
  const std::set<std::string> deprecated(U().deprecated_ca_names().begin(),
                                         U().deprecated_ca_names().end());
  for (const auto& record : U().distrust_records()) {
    EXPECT_EQ(deprecated.count(record.ca_name), 1u) << record.ca_name;
    EXPECT_TRUE(U().is_distrusted(record.ca_name));
  }
  EXPECT_FALSE(U().is_distrusted("GlobalSign Root CA"));
}

TEST(CaUniverse, NamedIncidentsPresent) {
  // §5.2: TurkTrust (2013), CNNIC (2015), WoSign (2016), Certinomis (2019).
  EXPECT_EQ(U().removal_year("TurkTrust Elektronik Sertifika"), 2013);
  EXPECT_EQ(U().removal_year("CNNIC Root"), 2015);
  EXPECT_EQ(U().removal_year("WoSign CA Free SSL"), 2016);
  EXPECT_EQ(U().removal_year("Certinomis - Root CA"), 2019);
}

TEST(CaUniverse, RemovalYearsCoverFig4Range) {
  std::set<int> years;
  for (const auto& name : U().deprecated_ca_names()) {
    const auto year = U().removal_year(name);
    ASSERT_TRUE(year.has_value()) << name;
    years.insert(*year);
  }
  EXPECT_EQ(*years.begin(), 2013);
  EXPECT_EQ(*years.rbegin(), 2020);
}

TEST(CaUniverse, DeprecatedCertsAreUnexpired) {
  for (const auto& name : U().deprecated_ca_names()) {
    EXPECT_TRUE(U().authority(name).root().tbs.validity.contains(
        U().reference_date()))
        << name;
  }
}

TEST(CaUniverse, ExpiredRemovedCAsAreExcluded) {
  // The expiry filter must have dropped the expired removed CAs.
  for (const auto& name : U().all_ca_names()) {
    if (name.find("Expired Legacy") == std::string::npos) continue;
    const std::set<std::string> deprecated(U().deprecated_ca_names().begin(),
                                           U().deprecated_ca_names().end());
    EXPECT_EQ(deprecated.count(name), 0u) << name;
    EXPECT_TRUE(U().removal_year(name).has_value()) << name;
  }
}

TEST(CaUniverse, CommonCertsInEveryLatestStore) {
  for (const auto& h : U().histories()) {
    for (const auto& name : U().common_ca_names()) {
      EXPECT_EQ(h.latest().ca_names.count(name), 1u)
          << h.platform << " missing " << name;
    }
  }
}

TEST(CaUniverse, DeprecatedCertsAbsentFromLatestStores) {
  for (const auto& h : U().histories()) {
    for (const auto& name : U().deprecated_ca_names()) {
      EXPECT_EQ(h.latest().ca_names.count(name), 0u)
          << h.platform << " still contains " << name;
    }
  }
}

TEST(CaUniverse, PlatformExclusivesNotCommon) {
  const std::set<std::string> common(U().common_ca_names().begin(),
                                     U().common_ca_names().end());
  EXPECT_EQ(common.count("Mozilla Exclusive Root 00"), 0u);
  bool in_mozilla = false;
  for (const auto& h : U().histories()) {
    if (h.platform == "Mozilla") {
      in_mozilla = h.latest().ca_names.count("Mozilla Exclusive Root 00") > 0;
    }
  }
  EXPECT_TRUE(in_mozilla);
}

TEST(CaUniverse, AuthorityLookup) {
  EXPECT_NO_THROW((void)U().authority("GlobalSign Root CA"));
  EXPECT_THROW((void)U().authority("No Such CA"), std::out_of_range);
  EXPECT_EQ(U().find("No Such CA"), nullptr);
  EXPECT_NE(U().find("GlobalSign Root CA"), nullptr);
}

TEST(CaUniverse, EveryAuthorityHasDistinctKey) {
  // Serial prefix + key must differ; compare moduli of a sample.
  const auto& a = U().authority("GlobalSign Root CA").keypair().pub.n;
  const auto& b = U().authority("DigiCert Global Root").keypair().pub.n;
  EXPECT_NE(a, b);
}

/// A 14-CA universe: cheap enough to key from cold caches in a unit test.
CaUniverse::Options tiny_options(std::uint64_t seed) {
  CaUniverse::Options opts;
  opts.seed = seed;
  opts.common_count = 5;
  opts.deprecated_count = 4;
  opts.expired_removed_count = 1;
  opts.platform_exclusive_count = 1;
  return opts;
}

TEST(CaUniverse, SmallCustomUniverse) {
  CaUniverse::Options opts = tiny_options(99);
  opts.key_bits = 448;
  const CaUniverse small(opts);
  EXPECT_EQ(small.common_ca_names().size(), 5u);
  EXPECT_EQ(small.deprecated_ca_names().size(), 4u);
}

TEST(CaUniverse, KeysDependOnlyOnSeedAndName) {
  // Each CA keys from Rng::derive(seed, "ca/<name>"): dropping most common
  // CAs must not move any other CA's key, serial prefix or root bytes.
  CaUniverse::Options opts;
  opts.common_count = 10;
  const CaUniverse fewer(opts);
  EXPECT_EQ(fewer.all_ca_names().size(), 10u + 87u + 6u + 16u);
  for (const auto& name : fewer.all_ca_names()) {
    const CertificateAuthority* standard = U().find(name);
    ASSERT_NE(standard, nullptr) << name;
    EXPECT_EQ(fewer.authority(name).root().serialize(),
              standard->root().serialize())
        << name;
  }
}

TEST(CaUniverse, WorkerBuildMatchesParallelBuild) {
  crypto::crypto_caches_clear();
  const CaUniverse main_thread(tiny_options(7));
  crypto::crypto_caches_clear();  // the worker build generates every key
  std::optional<CaUniverse> in_worker;
  bool ran_in_worker = false;
  common::parallel_for(2, 2, [&](std::size_t i) {
    if (i != 0) return;
    ran_in_worker = common::in_worker();
    in_worker.emplace(tiny_options(7));
  });
  ASSERT_TRUE(in_worker.has_value());
  EXPECT_TRUE(ran_in_worker);
  ASSERT_EQ(in_worker->all_ca_names(), main_thread.all_ca_names());
  for (const auto& name : main_thread.all_ca_names()) {
    EXPECT_EQ(in_worker->authority(name).root().serialize(),
              main_thread.authority(name).root().serialize())
        << name;
  }
}

TEST(CaUniverse, StandardRootsDigest) {
  // Absolute anchor on the key material: SHA-256 over every root
  // certificate of the standard universe, in creation order. Moves only
  // when CA key generation, serial assignment or certificate encoding
  // changes.
  crypto::Sha256 hash;
  for (const auto& name : U().all_ca_names()) {
    hash.update(U().authority(name).root().serialize());
  }
  const crypto::Sha256Digest digest = hash.finish();
  EXPECT_EQ(common::hex_encode(digest),
            "a90f46ea0bc0aef27ea0f6a520def1617e272306f7996d9b3a20899048042ea8");
}

/// A profiled build of the tiny seed-11 universe.
obs::ProfileSnapshot profiled_tiny_build() {
  obs::profile_reset();
  obs::set_profile_enabled(true);
  { const CaUniverse tiny(tiny_options(11)); }
  obs::ProfileSnapshot snap = obs::profile_snapshot();
  obs::set_profile_enabled(false);
  obs::profile_reset();
  return snap;
}

TEST(CaUniverse, BuildIsCreditedToPki) {
  // The warm half needs the memo on whatever IOTLS_CRYPTO_CACHE says.
  const bool cache_was_enabled = crypto::crypto_cache_enabled();
  crypto::set_crypto_cache_enabled(true);
  crypto::crypto_caches_clear();
  const obs::ProfileSnapshot snap = profiled_tiny_build();
  const std::size_t ca_count =
      CaUniverse(tiny_options(11)).all_ca_names().size();

  const std::function<void(const obs::ProfileNode&)> walk =
      [&](const obs::ProfileNode& node) {
        // Key generation is never anonymous: no modexp directly under the
        // root or a bare pool task.
        if (node.name == "<root>" || node.name == "pool/task") {
          EXPECT_EQ(node.children.count("crypto/modexp"), 0u) << node.name;
        }
        for (const auto& [name, child] : node.children) walk(child);
      };
  walk(snap.root);
  EXPECT_EQ(obs::zone_calls(snap.root, "pki/universe"), 1u);
  EXPECT_EQ(obs::zone_calls(snap.root, "pki/ca_keygen"), ca_count);

  // The cold build's work budget, summed over the whole tree. Every CA's
  // key is a distinct memo key and the keypair memo computes each key
  // once, so the totals are the same at any thread count.
  EXPECT_EQ(obs::zone_calls(snap.root, "crypto/modexp"), 683u);
  EXPECT_EQ(obs::zone_calls(snap.root, "crypto/rsa_private_op"), 14u);
  EXPECT_EQ(obs::calls_within(snap.root, "pki/ca_keygen", "crypto/modexp"),
            683u);

  // An immediate warm rebuild finds every key in the memo: key generation
  // runs no exponentiation at all.
  const obs::ProfileSnapshot warm = profiled_tiny_build();
  EXPECT_EQ(obs::zone_calls(warm.root, "pki/ca_keygen"), ca_count);
  EXPECT_EQ(obs::calls_within(warm.root, "pki/ca_keygen", "crypto/modexp"),
            0u);
  crypto::set_crypto_cache_enabled(cache_was_enabled);
}

}  // namespace
}  // namespace iotls::pki
