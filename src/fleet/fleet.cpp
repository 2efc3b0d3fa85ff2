#include "fleet/fleet.hpp"

#include <algorithm>
#include <stdexcept>

namespace iotls::fleet {

namespace {

/// Region mix (roughly: consumer-IoT shipment shares). Cumulative
/// thresholds for a single uniform01 draw.
constexpr std::array<double, kRegionCount> kRegionCumulative = {
    0.35, 0.60, 0.80, 0.92, 1.0};

constexpr std::array<const char*, kRegionCount> kRegionNames = {
    "na", "eu", "apac", "latam", "mea"};

}  // namespace

std::string region_name(Region region) {
  return kRegionNames[static_cast<std::size_t>(region)];
}

std::string age_bucket_name(int skew_months) {
  if (skew_months <= 0) return "cur";
  if (skew_months <= 6) return "6mo";
  if (skew_months <= 12) return "12mo";
  return "old";
}

FleetModel::FleetModel(FleetOptions options) : options_(std::move(options)) {
  const auto wanted = [this](const devices::DeviceProfile& profile) {
    return options_.devices.empty() ||
           std::find(options_.devices.begin(), options_.devices.end(),
                     profile.name) != options_.devices.end();
  };
  for (const auto& profile : devices::device_catalog()) {
    if (wanted(profile)) models_.push_back(&profile);
  }
  if (models_.empty()) {
    throw std::invalid_argument("fleet: no catalog models selected");
  }
  epochs_.resize(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m) {
    std::vector<common::Month>& months = epochs_[m];
    for (const auto& update : models_[m]->updates) {
      months.push_back(update.when);
    }
    std::sort(months.begin(), months.end(),
              [](common::Month a, common::Month b) {
                return a.index() < b.index();
              });
    months.erase(std::unique(months.begin(), months.end()), months.end());
  }
}

InstanceSpec FleetModel::instance(std::uint64_t index) const {
  InstanceSpec spec;
  spec.index = index;
  spec.uid = common::split_seed(options_.seed, index);
  // Every draw below comes from the uid-keyed stream in this fixed order —
  // the whole expansion contract lives in these few lines.
  common::Rng rng(spec.uid);
  spec.model = static_cast<std::uint32_t>(rng.uniform(models_.size()));
  const double region_draw = rng.uniform01();
  spec.region = Region::MiddleEastAfrica;
  for (std::size_t r = 0; r < kRegionCount; ++r) {
    if (region_draw < kRegionCumulative[r]) {
      spec.region = static_cast<Region>(r);
      break;
    }
  }
  // Firmware skew: most instances track updates; a tail runs months-old
  // firmware (the age strata of the campaign tables).
  spec.skew_months =
      rng.chance(0.55) ? 0 : 1 + static_cast<int>(rng.uniform(18));
  const double drift_draw = rng.uniform01();
  if (drift_draw < 0.92) {
    spec.drift_bucket = 0;
  } else if (drift_draw < 0.96) {
    spec.drift_bucket = 1;
  } else if (drift_draw < 0.99) {
    spec.drift_bucket = 2;
  } else {
    spec.drift_bucket = 3;
  }
  // Churn: most instances live through their model's whole window; the
  // rest appear and/or disappear inside it. Every draw is unconditional so
  // the stream shape never depends on earlier outcomes.
  const auto [window_start, window_end] = window(spec.model);
  const int span = std::max(0, window_end - window_start);
  const bool full_life = rng.chance(0.7);
  const int birth_draw = static_cast<int>(
      rng.uniform(static_cast<std::uint64_t>(span) + 1));
  const int death_draw = static_cast<int>(
      rng.uniform(static_cast<std::uint64_t>(span - birth_draw) + 1));
  spec.birth = window_start;
  spec.death = window_end;
  if (!full_life) {
    spec.birth = window_start + birth_draw;
    spec.death = spec.birth + death_draw;
  }
  const bool rekeys = rng.chance(0.15);
  const int rekey_draw = static_cast<int>(rng.uniform(
      static_cast<std::uint64_t>(std::max(0, spec.death - spec.birth)) + 1));
  if (rekeys) spec.rekey_month = spec.birth + rekey_draw;
  return spec;
}

std::pair<int, int> FleetModel::window(std::uint32_t model) const {
  const devices::DeviceProfile& profile = *models_[model];
  const int first_off = options_.first.diff(common::kStudyStart);
  const int last_off = options_.last.diff(common::kStudyStart);
  return {std::max(profile.passive_start_offset, first_off),
          std::min(profile.passive_end_offset, last_off)};
}

bool FleetModel::alive_at(const InstanceSpec& spec, int month_offset) {
  return month_offset >= spec.birth && month_offset <= spec.death;
}

std::string FleetModel::label(const InstanceSpec& spec,
                              common::Month when) const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string uid_hex(16, '0');
  for (int nibble = 0; nibble < 16; ++nibble) {
    uid_hex[15 - nibble] = kHex[(spec.uid >> (4 * nibble)) & 0xF];
  }
  std::string out = models_[spec.model]->name;
  out += '#';
  out += region_name(spec.region);
  out += "#a";
  out += age_bucket_name(spec.skew_months);
  out += '#';
  out += uid_hex;
  const int offset = when.diff(common::kStudyStart);
  if (spec.rekey_month >= 0 && offset >= spec.rekey_month) {
    out += "#k1";
  }
  return out;
}

std::string FleetModel::vendor(std::uint32_t model) const {
  const std::string& name = models_[model]->name;
  const std::size_t space = name.find(' ');
  return space == std::string::npos ? name : name.substr(0, space);
}

const std::vector<common::Month>& FleetModel::epochs(
    std::uint32_t model) const {
  return epochs_[model];
}

int FleetModel::epoch_at(const InstanceSpec& spec, common::Month when) const {
  int epoch = 0;
  for (const common::Month update : epochs_[spec.model]) {
    if (update.plus(spec.skew_months).index() <= when.index()) ++epoch;
  }
  return epoch;
}

common::Month FleetModel::epoch_month(std::uint32_t model, int epoch) const {
  if (epoch <= 0) return common::kStudyStart;
  const auto& months = epochs_[model];
  return months[static_cast<std::size_t>(
      std::min<int>(epoch, static_cast<int>(months.size())) - 1)];
}

devices::DeviceProfile FleetModel::frozen_profile(
    std::uint32_t model, int epoch, std::uint64_t seed_salt) const {
  devices::DeviceProfile profile = *models_[model];
  const common::Month frozen_at = epoch_month(model, epoch);
  for (auto& instance : profile.instances) {
    instance.config = models_[model]->config_at(instance.id, frozen_at);
  }
  profile.updates.clear();
  if (seed_salt != 0) {
    profile.seed = common::split_seed(profile.seed, seed_salt);
  }
  return profile;
}

}  // namespace iotls::fleet
