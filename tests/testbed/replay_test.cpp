// Oracle for the sandbox replay: testbed::replay_months must hand its
// visitor exactly the stream a sandbox that connects to every destination
// in every month captures — same month index, destination and records, in
// the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "devices/catalog.hpp"
#include "fleet/fleet.hpp"
#include "testbed/testbed.hpp"

namespace iotls::testbed {
namespace {

constexpr std::uint64_t kSeed = 42;

struct Visit {
  std::size_t month = 0;
  std::size_t destination = 0;
  std::vector<net::HandshakeRecord> records;

  bool operator==(const Visit&) const = default;
};

using Stream = std::vector<Visit>;

/// The reference replay: the sandbox replay_months builds, with a real
/// connect_to for every (month, destination).
Stream reference_stream(const devices::DeviceProfile& profile,
                        const std::vector<common::Month>& months,
                        int clock_skew_days) {
  const pki::CaUniverse& universe = pki::CaUniverse::standard();
  net::Network network;
  CloudFarm cloud(universe, kSeed);
  for (const auto& dest : profile.destinations) {
    cloud.add_destination(dest.hostname);
  }
  cloud.install(network);
  const pki::RevocationList revocations;
  DeviceRuntime runtime(profile, universe, network, &revocations);
  const auto& records = network.capture().records();
  Stream stream;
  for (std::size_t m = 0; m < months.size(); ++m) {
    cloud.set_current_date(
        common::SimDate::start_of(months[m]).plus_days(14));
    const common::SimDate device_clock =
        cloud.current_date().plus_days(clock_skew_days);
    for (std::size_t d = 0; d < profile.destinations.size(); ++d) {
      const std::size_t before = records.size();
      (void)runtime.connect_to(profile.destinations[d], device_clock);
      Visit visit{m, d, {}};
      visit.records.assign(
          records.begin() + static_cast<std::ptrdiff_t>(before),
          records.end());
      for (auto& record : visit.records) record.month = months[m];
      stream.push_back(std::move(visit));
    }
  }
  return stream;
}

Stream replayed_stream(const devices::DeviceProfile& profile,
                       const std::vector<common::Month>& months,
                       int clock_skew_days) {
  Stream stream;
  replay_months(profile, pki::CaUniverse::standard(), kSeed, months,
                clock_skew_days,
                [&](std::size_t m, std::size_t d,
                    std::vector<net::HandshakeRecord> records) {
                  stream.push_back({m, d, std::move(records)});
                });
  return stream;
}

/// Asserts the two streams agree and returns the reference one, so a case
/// can also check that it exercised the path it is about.
Stream expect_same_stream(const devices::DeviceProfile& profile,
                          const std::vector<common::Month>& months,
                          int clock_skew_days) {
  Stream expected = reference_stream(profile, months, clock_skew_days);
  const Stream actual = replayed_stream(profile, months, clock_skew_days);
  EXPECT_EQ(actual.size(), expected.size()) << profile.name;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_TRUE(actual[i] == expected[i])
        << profile.name << ", skew " << clock_skew_days << " days, "
        << months[expected[i].month].str() << ", destination "
        << profile.destinations[expected[i].destination].hostname;
  }
  return expected;
}

const devices::DeviceProfile& device(const std::string& name) {
  const devices::DeviceProfile* profile = devices::find_device(name);
  if (profile == nullptr) throw std::out_of_range("no device " + name);
  return *profile;
}

bool completes(const Visit& visit) {
  return !visit.records.empty() && visit.records.back().handshake_complete;
}

TEST(ReplayMonths, MatchesEveryMonthReplayOverEachTrafficWindow) {
  const auto study =
      common::month_range(common::kStudyStart, common::kStudyEnd);
  for (const auto& profile : devices::device_catalog()) {
    std::vector<common::Month> months;
    for (const auto& month : study) {
      if (profile.generates_traffic_in(month)) months.push_back(month);
    }
    (void)expect_same_stream(profile, months, 0);
  }
}

TEST(ReplayMonths, MatchesEveryMonthReplayOfAFrozenFleetProfile) {
  fleet::FleetOptions options;
  options.devices = {"Apple TV"};
  const fleet::FleetModel fleet(options);
  const int last_epoch = static_cast<int>(fleet.epochs(0).size());
  const devices::DeviceProfile frozen = fleet.frozen_profile(0, last_epoch);
  const auto [first_off, last_off] = fleet.window(0);
  const auto months =
      common::month_range(common::kStudyStart.plus(first_off),
                          common::kStudyStart.plus(last_off));
  for (const int skew : fleet::kDriftDays) {
    (void)expect_same_stream(frozen, months, skew);
  }
}

TEST(ReplayMonths, MatchesAcrossTheLeafExpiry) {
  // The farm's leaves expire on 2023-01-01. The Yi Camera fails three
  // times, disables validation and completes again; Roku TV retries every
  // failed connection with its fallback config.
  const auto months =
      common::month_range(common::Month{2022, 10}, common::Month{2023, 6});

  const Stream yi = expect_same_stream(device("Yi Camera"), months, 0);
  ASSERT_EQ(yi.size(), months.size());
  EXPECT_TRUE(completes(yi.front()));
  EXPECT_FALSE(completes(yi[3]));  // 2023-01: the first expired month
  EXPECT_TRUE(completes(yi.back()));

  const Stream roku = expect_same_stream(device("Roku TV"), months, 0);
  std::size_t retried = 0;
  for (const Visit& visit : roku) retried += visit.records.size() == 2;
  EXPECT_GT(retried, 0u);
}

TEST(ReplayMonths, MatchesAcrossTheLeafStart) {
  // The farm's leaves are valid from 2017-01-01.
  const auto months =
      common::month_range(common::Month{2016, 10}, common::Month{2017, 3});
  for (const char* name : {"Yi Camera", "Roku TV", "Nest Thermostat"}) {
    const Stream stream = expect_same_stream(device(name), months, 0);
    ASSERT_FALSE(stream.empty()) << name;
    EXPECT_TRUE(completes(stream.back())) << name;
  }
}

}  // namespace
}  // namespace iotls::testbed
