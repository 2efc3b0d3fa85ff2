#include "common/simtime.hpp"

#include <cstdio>

namespace iotls::common {

Month Month::plus(int months) const { return from_index(index() + months); }

Month Month::from_index(int idx) {
  Month m;
  m.year = idx / 12;
  m.month = idx % 12 + 1;
  return m;
}

std::string Month::str() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", year, month);
  return buf;
}

std::vector<Month> month_range(Month first, Month last) {
  std::vector<Month> out;
  for (int i = first.index(); i <= last.index(); ++i) {
    out.push_back(Month::from_index(i));
  }
  return out;
}

SimDate SimDate::plus_days(int days) const {
  return from_serial(serial() + days);
}

SimDate SimDate::from_serial(std::int64_t serial) {
  SimDate d;
  d.day = static_cast<int>(serial % 30) + 1;
  const std::int64_t months = serial / 30;
  d.month = static_cast<int>(months % 12) + 1;
  d.year = static_cast<int>(months / 12);
  return d;
}

}  // namespace iotls::common
