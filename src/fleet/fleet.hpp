// Fleet expansion model: the 40 catalog devices become millions of device
// *instances* — the synthetic internet the scan-campaign papers measure
// (PAPERS.md: IPv6 IoT host analysis, IIoT TLS-support scanning).
//
// An instance is a pure function of (fleet seed, instance index): model,
// region, firmware-update skew, clock drift, churn window and NAT re-key
// months are all drawn from `Rng(split_seed(seed, index))` in one fixed
// order. Nothing is ever materialized fleet-wide — any worker can expand
// any index independently, which is what makes shard-parallel synthesis
// byte-identical at every thread count and lets a crashed run regenerate
// exactly the shards it lost.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simtime.hpp"
#include "devices/catalog.hpp"

namespace iotls::fleet {

/// Deployment region. Drives the sampling strata of the scan campaign and
/// the regional root-store variants (vendors ship different trust bundles
/// per market).
enum class Region : std::uint8_t {
  NorthAmerica,
  Europe,
  AsiaPacific,
  LatinAmerica,
  MiddleEastAfrica,
};

inline constexpr std::size_t kRegionCount = 5;

/// Short stable token used in instance labels and table rows.
std::string region_name(Region region);

/// Clock-drift buckets, in days the device clock runs ahead of true time.
/// Bucket 0 (no drift) dominates; the +400d tail models the years-stale
/// clocks that make otherwise-valid certificates look expired.
inline constexpr std::array<int, 4> kDriftDays = {0, -45, 45, 400};

/// Firmware-age bucket derived from update skew — a campaign stratum.
std::string age_bucket_name(int skew_months);

struct FleetOptions {
  std::uint64_t seed = 20210301;
  std::uint64_t instances = 1'000'000;
  /// Restrict expansion to these catalog models (empty = all 40). Tests
  /// use small subsets; the bench runs the whole catalog.
  std::vector<std::string> devices;
  /// Study window instances live in (month offsets are relative to first).
  common::Month first = common::kStudyStart;
  common::Month last = common::kStudyEnd;
};

/// One expanded instance. All month fields are offsets relative to
/// common::kStudyStart (the DeviceProfile::passive_*_offset convention),
/// clamped to the fleet window.
struct InstanceSpec {
  std::uint64_t index = 0;
  /// Stable fleet-unique id: split_seed(seed, index). Different fleet
  /// seeds produce disjoint id sets (64-bit collision odds).
  std::uint64_t uid = 0;
  std::uint32_t model = 0;  ///< index into FleetModel::models()
  Region region = Region::NorthAmerica;
  /// Firmware updates reach this instance `skew_months` late (0 = current).
  int skew_months = 0;
  /// Index into kDriftDays.
  int drift_bucket = 0;
  /// Alive month-offset window [birth, death] (churn: instances appear and
  /// disappear inside their model's passive window).
  int birth = 0;
  int death = 0;
  /// NAT re-key: from this month offset the instance shows up under a new
  /// identity suffix (-1 = keeps one identity for life).
  int rekey_month = -1;
};

/// The (lazily expanded) fleet. Holds only the resolved model list — never
/// the instances.
class FleetModel {
 public:
  explicit FleetModel(FleetOptions options);

  [[nodiscard]] const FleetOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<const devices::DeviceProfile*>& models()
      const {
    return models_;
  }

  /// Expand instance `index` (pure; any order, any thread).
  [[nodiscard]] InstanceSpec instance(std::uint64_t index) const;

  /// Month-offset window a model's instances can be observed in: the
  /// model's passive window intersected with the fleet window. May be
  /// empty (second < first) when they don't overlap.
  [[nodiscard]] std::pair<int, int> window(std::uint32_t model) const;

  /// True if the instance generates traffic in the given month offset.
  [[nodiscard]] static bool alive_at(const InstanceSpec& spec,
                                     int month_offset);

  /// Wire identity of the instance as observed in `when` — encodes model,
  /// region, firmware-age bucket and uid so the store/query layers can
  /// slice by any of them, plus the NAT re-key suffix once the instance
  /// has re-keyed: "Yi Camera#apac#a6mo#1f00ddeadbeef012#k1".
  [[nodiscard]] std::string label(const InstanceSpec& spec,
                                  common::Month when) const;

  /// Vendor stratum of a model (first word of the catalog name).
  [[nodiscard]] std::string vendor(std::uint32_t model) const;

  /// Distinct firmware-update months of a model, sorted — the epoch
  /// boundaries instances slide along when their updates arrive late.
  [[nodiscard]] const std::vector<common::Month>& epochs(
      std::uint32_t model) const;

  /// Firmware epoch the instance runs in `when`: the number of updates
  /// that have reached it, i.e. updates whose month + skew_months ≤ when.
  [[nodiscard]] int epoch_at(const InstanceSpec& spec,
                             common::Month when) const;

  /// The month a given epoch's configuration became current (epoch 0 = the
  /// study start, i.e. no updates applied). Template synthesis freezes
  /// configs at this month.
  [[nodiscard]] common::Month epoch_month(std::uint32_t model,
                                          int epoch) const;

  /// The model profile frozen at `epoch` for probing/synthesis: instance
  /// configs pinned to epoch_month, updates cleared (skew is applied via
  /// epoch selection, not by replaying the update timeline). `seed_salt`
  /// re-keys the profile seed (regional root-store variants derive from
  /// split_seed(model seed, region)).
  [[nodiscard]] devices::DeviceProfile frozen_profile(
      std::uint32_t model, int epoch, std::uint64_t seed_salt = 0) const;

 private:
  FleetOptions options_;
  std::vector<const devices::DeviceProfile*> models_;
  std::vector<std::vector<common::Month>> epochs_;
};

}  // namespace iotls::fleet
