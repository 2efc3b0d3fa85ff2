#include "analysis/party.hpp"

#include <gtest/gtest.h>

#include "analysis/fold.hpp"
#include "analysis/longitudinal.hpp"

namespace iotls::analysis {
namespace {

TEST(Party, ClassifiesFromCatalog) {
  EXPECT_EQ(classify_party("Fire TV", "ads.tracker-sim.net"), Party::Third);
  EXPECT_EQ(classify_party("Fire TV", "ota.amazon-sim.com"), Party::First);
  EXPECT_EQ(classify_party("Fire TV", "nope.example.com"), Party::Unknown);
  EXPECT_EQ(classify_party("No Such Device", "x"), Party::Unknown);
}

TEST(Party, BreakdownCountsAndFractions) {
  testbed::GeneratorOptions gen;
  gen.seed = 909;
  gen.count_scale = 0.02;
  gen.first = common::Month{2019, 1};
  gen.last = common::Month{2019, 3};
  gen.devices = {"Fire TV", "Roku TV", "Apple TV", "Samsung TV"};
  const auto dataset = testbed::generate_passive_dataset(gen);

  const auto breakdown = party_version_breakdown(
      fold_dataset(dataset, common::month_range(gen.first, gen.last)));
  EXPECT_GT(breakdown.total(Party::First), 0u);
  EXPECT_GT(breakdown.total(Party::Third), 0u);
  EXPECT_EQ(breakdown.total(Party::Unknown), 0u);

  // Fractions per party sum to 1.
  for (const auto party : {Party::First, Party::Third}) {
    const double sum = breakdown.fraction(party, tls::VersionBucket::Tls13) +
                       breakdown.fraction(party, tls::VersionBucket::Tls12) +
                       breakdown.fraction(party, tls::VersionBucket::Older);
    EXPECT_NEAR(sum, 1.0, 1e-9) << party_name(party);
  }
  EXPECT_GE(breakdown.divergence(), 0.0);
  EXPECT_LE(breakdown.divergence(), 2.0);
}

TEST(Party, NoStrongThirdPartyBiasInFullDataset) {
  // §5.1: "we found no patterns that indicate bias toward one TLS version
  // depending on the destination type contacted".
  testbed::GeneratorOptions gen;
  gen.seed = 910;
  gen.count_scale = 0.01;
  const auto dataset = testbed::generate_passive_dataset(gen);
  const auto breakdown =
      party_version_breakdown(fold_dataset(dataset, study_months()));
  EXPECT_LT(breakdown.divergence(), 0.6);
  EXPECT_FALSE(render_party_breakdown(breakdown).empty());
}

}  // namespace
}  // namespace iotls::analysis
