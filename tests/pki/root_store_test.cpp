#include "pki/root_store.hpp"

#include <gtest/gtest.h>

#include "pki/ca.hpp"

namespace iotls::pki {
namespace {

x509::Certificate make_root(const std::string& cn, std::uint64_t seed) {
  common::Rng rng(seed);
  CertificateAuthority ca(x509::DistinguishedName::cn(cn), rng);
  return ca.root();
}

TEST(RootStore, AddAndFind) {
  RootStore store;
  store.add(make_root("A", 1));
  EXPECT_TRUE(store.contains(x509::DistinguishedName::cn("A")));
  EXPECT_FALSE(store.contains(x509::DistinguishedName::cn("B")));
  EXPECT_EQ(store.size(), 1u);
}

TEST(RootStore, AddDeduplicatesBySubject) {
  RootStore store;
  store.add(make_root("A", 1));
  store.add(make_root("A", 2));  // different key, same subject
  EXPECT_EQ(store.size(), 1u);
}

TEST(RootStore, FindReturnsCertificate) {
  RootStore store;
  const auto root = make_root("A", 1);
  store.add(root);
  const auto* found = store.find(root.tbs.subject);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, root);
  EXPECT_EQ(store.find(x509::DistinguishedName::cn("Z")), nullptr);
}

TEST(RootStore, RootsSpanMatchesContents) {
  RootStore store;
  store.add(make_root("A", 1));
  store.add(make_root("B", 2));
  EXPECT_EQ(store.roots().size(), 2u);
  EXPECT_FALSE(store.empty());
  EXPECT_TRUE(RootStore{}.empty());
}

}  // namespace
}  // namespace iotls::pki
