// Simulated calendar time.
//
// The paper's longitudinal results (Figs 1-3) are month-granular over
// Jan 2018 - Mar 2020; root-store histories are year-granular. `Month` is the
// unit of the passive dataset; `SimDate` adds day resolution for certificate
// validity windows.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace iotls::common {

/// A calendar month (year, 1-based month). Totally ordered; supports
/// difference and offset arithmetic in months.
struct Month {
  int year = 2018;
  int month = 1;  // 1..12

  auto operator<=>(const Month&) const = default;

  /// Months since year 0 — the canonical linear index.
  [[nodiscard]] int index() const { return year * 12 + (month - 1); }

  [[nodiscard]] Month plus(int months) const;
  [[nodiscard]] int diff(const Month& earlier) const {
    return index() - earlier.index();
  }

  /// "2018-01"
  [[nodiscard]] std::string str() const;

  static Month from_index(int idx);
};

/// Inclusive month range [first, last].
std::vector<Month> month_range(Month first, Month last);

/// The paper's passive measurement window: Jan 2018 .. Mar 2020 (27 months).
inline constexpr Month kStudyStart{2018, 1};
inline constexpr Month kStudyEnd{2020, 3};

/// A calendar date with day resolution, used for certificate validity.
/// Days are approximated as 30-day months (fidelity is not needed: all
/// validity decisions in the study happen at month scale or coarser).
struct SimDate {
  int year = 2018;
  int month = 1;
  int day = 1;

  auto operator<=>(const SimDate&) const = default;

  [[nodiscard]] std::int64_t serial() const {
    return (static_cast<std::int64_t>(year) * 12 + (month - 1)) * 30 +
           (day - 1);
  }

  [[nodiscard]] SimDate plus_days(int days) const;
  [[nodiscard]] SimDate plus_years(int years) const {
    return SimDate{year + years, month, day};
  }

  [[nodiscard]] Month to_month() const { return Month{year, month}; }

  static SimDate from_serial(std::int64_t serial);
  static SimDate start_of(Month m) { return SimDate{m.year, m.month, 1}; }
};

/// Monotonic simulation clock. Advanced explicitly by the testbed; consumed
/// by capture records and certificate checks.
class SimClock {
 public:
  explicit SimClock(SimDate start = SimDate{2021, 3, 1}) : now_(start) {}

  [[nodiscard]] SimDate now() const { return now_; }
  void set(SimDate d) { now_ = d; }
  void advance_days(int days) { now_ = now_.plus_days(days); }

 private:
  SimDate now_;
};

}  // namespace iotls::common
