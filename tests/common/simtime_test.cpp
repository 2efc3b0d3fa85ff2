#include "common/simtime.hpp"

#include <gtest/gtest.h>

namespace iotls::common {
namespace {

TEST(Month, Ordering) {
  EXPECT_LT((Month{2018, 1}), (Month{2018, 2}));
  EXPECT_LT((Month{2018, 12}), (Month{2019, 1}));
  EXPECT_EQ((Month{2020, 3}), (Month{2020, 3}));
}

TEST(Month, PlusWrapsYears) {
  const Month m{2018, 11};
  EXPECT_EQ(m.plus(1), (Month{2018, 12}));
  EXPECT_EQ(m.plus(2), (Month{2019, 1}));
  EXPECT_EQ(m.plus(14), (Month{2020, 1}));
  EXPECT_EQ(m.plus(-11), (Month{2017, 12}));
}

TEST(Month, DiffIsInverseOfPlus) {
  const Month a{2018, 1};
  for (int k = 0; k < 40; ++k) {
    EXPECT_EQ(a.plus(k).diff(a), k);
  }
}

TEST(Month, Labels) {
  EXPECT_EQ((Month{2018, 1}).str(), "2018-01");
}

TEST(Month, StudyWindowIs27Months) {
  const auto months = month_range(kStudyStart, kStudyEnd);
  EXPECT_EQ(months.size(), 27u);
  EXPECT_EQ(months.front(), kStudyStart);
  EXPECT_EQ(months.back(), kStudyEnd);
}

TEST(SimDate, SerialRoundTrip) {
  const SimDate d{2021, 3, 15};
  EXPECT_EQ(SimDate::from_serial(d.serial()), d);
}

TEST(SimDate, PlusDaysCrossesMonth) {
  const SimDate d{2020, 1, 29};
  const SimDate e = d.plus_days(5);
  EXPECT_EQ(e.month, 2);
  EXPECT_EQ(e.year, 2020);
}

TEST(SimDate, PlusYears) {
  const SimDate d{2018, 6, 10};
  EXPECT_EQ(d.plus_years(3), (SimDate{2021, 6, 10}));
}

TEST(SimDate, Ordering) {
  EXPECT_LT((SimDate{2020, 12, 30}), (SimDate{2021, 1, 1}));
}

TEST(SimClock, AdvanceDays) {
  SimClock clock(SimDate{2021, 3, 1});
  clock.advance_days(35);
  EXPECT_EQ(clock.now().month, 4);
}

}  // namespace
}  // namespace iotls::common
