#include <cmath>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t Context::input_seed(std::uint64_t pool_base,
                                  std::uint64_t holdout_base,
                                  std::size_t index) const {
  if (record) {
    return index < kPoolSize ? pool_base + index
                             : holdout_base + (index - kPoolSize);
  }
  const std::uint64_t base = seed == kHoldoutSeed ? holdout_base : pool_base;
  return base + (seed + index) % kPoolSize;
}

namespace {

/// Every run measures at least this many units, whatever `--seconds` says;
/// a traced run at least its first unit and one cycle.
constexpr std::size_t kMinUnits = 3;
constexpr std::size_t kMinTracedUnits = 5;

/// Where unit `index` sits in the run's schedule (see run_units).
struct Slot {
  std::size_t input;
  bool traced;
  bool repeat;
};

Slot schedule(const Context& ctx, std::size_t index) {
  if (!ctx.trace || index == 0) return {index, false, false};
  const std::size_t a = 1 + 2 * ((index - 1) / 4);
  switch ((index - 1) % 4) {
    case 0: return {a, false, false};
    case 1: return {a, true, true};
    case 2: return {a + 1, true, false};
    default: return {a + 1, false, true};
  }
}

void set_tracing(const Context& ctx, bool on) {
  iotls::obs::set_metrics_enabled(on);
  iotls::obs::set_profile_enabled(on);
  ctx.spans->set_enabled(on);
}

/// The host yardstick between units: median of three reference runs.
double reference_now() {
  std::vector<double> samples;
  for (int i = 0; i < 3; ++i) samples.push_back(reference_ms(kThreads));
  return median(std::move(samples));
}

/// The untraced units of fresh inputs, without the cold first unit when
/// others follow it.
std::vector<const Unit*> warm_untraced(const std::vector<Unit>& units) {
  std::vector<const Unit*> warm;
  for (const Unit& unit : units) {
    if (!unit.traced && !unit.repeat) warm.push_back(&unit);
  }
  if (warm.size() > 1) warm.erase(warm.begin());
  return warm;
}

}  // namespace

UntracedScope::UntracedScope(const Context& ctx, bool traced)
    : ctx_(ctx), traced_(traced) {
  if (traced_) set_tracing(ctx_, false);
}

UntracedScope::~UntracedScope() {
  if (traced_) set_tracing(ctx_, true);
}

std::vector<Unit> run_units(
    const Context& ctx,
    const std::function<double(std::size_t, bool, Unit&)>& body) {
  std::vector<Unit> units;
  const std::size_t min_units = ctx.trace ? kMinTracedUnits : kMinUnits;
  const std::uint64_t start = now_ns();
  double reference_before = reference_now();
  for (std::size_t index = 0;; ++index) {
    if (ctx.record) {
      if (index == 2 * kPoolSize) break;
    } else if (index >= min_units &&
               ms_between(start, now_ns()) >= ctx.seconds * 1e3) {
      break;
    }
    const Slot slot = schedule(ctx, index);
    Unit unit;
    unit.traced = slot.traced;
    unit.repeat = slot.repeat;
    if (unit.traced) {
      iotls::obs::MetricsRegistry::global().reset();
      iotls::obs::profile_reset();
      set_tracing(ctx, true);
    }
    unit.wall_ms = body(slot.input, unit.traced, unit);
    if (unit.traced) {
      set_tracing(ctx, false);
      unit.registry = scrape_registry();
      for (const auto& [layer, ms] : profile_self_ms_by_layer(
               iotls::obs::profile_snapshot().root)) {
        unit.values[layer + ".self_ms"] = ms;
      }
    }
    const double reference_after = reference_now();
    unit.reference_ms = (reference_before + reference_after) / 2.0;
    reference_before = reference_after;
    units.push_back(std::move(unit));
  }
  return units;
}

double unit_median(const std::vector<Unit>& units, const std::string& name,
                   bool traced) {
  std::vector<double> values;
  for (const Unit& unit : units) {
    if (unit.traced != traced || unit.repeat) continue;
    if (const auto it = unit.values.find(name); it != unit.values.end()) {
      values.push_back(it->second);
    }
  }
  return median(std::move(values));
}

double trace_overhead_frac(const std::vector<Unit>& units) {
  std::vector<double> traced_repeat;  // r1 samples
  std::vector<double> traced_fresh;   // r2 samples
  for (std::size_t i = 1; i < units.size(); ++i) {
    const Unit& first = units[i - 1];
    const Unit& second = units[i];
    if (!second.repeat || first.wall_ms <= 0.0 || second.wall_ms <= 0.0) {
      continue;
    }
    if (second.traced) {
      traced_repeat.push_back(second.wall_ms / first.wall_ms);
    } else {
      traced_fresh.push_back(first.wall_ms / second.wall_ms);
    }
  }
  if (traced_repeat.empty() || traced_fresh.empty()) return 0.0;
  return std::sqrt(median(std::move(traced_repeat)) *
                   median(std::move(traced_fresh))) -
         1.0;
}

double untraced_seconds(const std::vector<Unit>& units) {
  double ms = 0.0;
  for (const Unit& unit : units) {
    if (!unit.traced && !unit.repeat) ms += unit.wall_ms;
  }
  return ms / 1e3;
}

void add_traced(RunResult& result, const std::vector<Unit>& units,
                const std::string& name) {
  result.add(name, unit_median(units, name, true));
}

void add_unit_cost(RunResult& result, const std::vector<Unit>& units) {
  std::map<std::string, std::vector<double>> stage_ms;
  std::map<std::string, std::vector<double>> stage_ref;
  std::vector<double> references;
  for (const Unit* unit : warm_untraced(units)) {
    references.push_back(unit->reference_ms);
    for (const auto& [name, ms] : unit->values) {
      if (name.rfind("stage.", 0) != 0) continue;
      stage_ms[name].push_back(ms);
      stage_ref[name].push_back(ms / unit->reference_ms);
    }
  }
  double ms = 0.0;
  for (const auto& [name, samples] : stage_ms) ms += median(samples);
  double ref = 0.0;
  for (const auto& [name, samples] : stage_ref) ref += median(samples);
  result.add("unit_s", ms / 1e3);
  result.add("unit_ref", ref);
  result.add("host.reference_ms", median(std::move(references)));
}

}  // namespace perfbench
