// The three workloads and the unit loop they share.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "golden.hpp"
#include "harness.hpp"
#include "pki/universe.hpp"

namespace perfbench {

/// Inputs come from a pool of kPoolSize seeds per workload whose outputs
/// have committed digests; the benchmark seed picks where a run starts in
/// the pool. kHoldoutSeed selects a second pool, kept for confirming a
/// claim on inputs no tuning run has measured.
inline constexpr std::uint64_t kPoolSize = 8;
inline constexpr std::uint64_t kHoldoutSeed = 20211102;

struct Context {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Record mode: run every input of both pools once and store digests.
  bool record = false;
  const iotls::pki::CaUniverse* universe = nullptr;
  Golden* golden = nullptr;
  SpanRecorder* spans = nullptr;
  /// Scratch space inside the checkout (the fleet store lives here).
  std::string scratch_dir;

  /// The input seed of unit `index`: consecutive pool entries from the
  /// run's starting point; in record mode, every entry of both pools.
  [[nodiscard]] std::uint64_t input_seed(std::uint64_t pool_base,
                                         std::uint64_t holdout_base,
                                         std::size_t index) const;
};

/// One unit of work: a study seed, a fleet round or a handshake batch.
struct Unit {
  bool traced = false;
  /// A second pass over the input of the unit before it (traced runs).
  bool repeat = false;
  double wall_ms = 0.0;
  /// reference_ms(kThreads) around the unit: the mean of the medians of
  /// three runs just before and just after it.
  double reference_ms = 0.0;
  /// Per-unit readings the workload records (layer times, counts).
  std::map<std::string, double> values;
  /// Traced units: the metrics registry after the unit.
  std::map<std::string, double> registry;
};

/// Runs `body(input, traced, unit)` until `ctx.seconds` have passed and at
/// least three units (a traced run: five) ran; record mode runs exactly
/// `2 * kPoolSize` units. The body returns the wall milliseconds of its
/// timed part; `input` is the index it passes to Context::input_seed.
///
/// A traced run starts with one untraced unit, then repeats a cycle of
/// four over two fresh inputs A and B: untraced A, traced A again, traced
/// B, untraced B again. The second pass over an input finds the crypto
/// caches warm with it, so repeats (`Unit::repeat`) serve only
/// trace_overhead_frac, which compares both orders; every other metric
/// reads the units of fresh inputs. Around each traced unit the metrics
/// registry, the profiler and the span recorder are reset and switched on,
/// and the profiler's per-layer self times land in `values` as
/// "<layer>.self_ms". Tracing is off everywhere else.
std::vector<Unit> run_units(
    const Context& ctx,
    const std::function<double(std::size_t, bool, Unit&)>& body);

/// Switches tracing off for its scope inside a traced unit, so that the
/// benchmark's own checks are not credited to the layers; a no-op in an
/// untraced one.
class UntracedScope {
 public:
  UntracedScope(const Context& ctx, bool traced);
  ~UntracedScope();
  UntracedScope(const UntracedScope&) = delete;
  UntracedScope& operator=(const UntracedScope&) = delete;

 private:
  const Context& ctx_;
  bool traced_;
};

/// Median of `values[name]` over the traced (or untraced) units of fresh
/// inputs; 0 if none recorded it.
double unit_median(const std::vector<Unit>& units, const std::string& name,
                   bool traced = true);
/// Tracing cost from the pairs of one input in a traced run's cycles:
/// sqrt(r1 * r2) - 1, where r1 is the median of traced repeat over untraced
/// fresh unit and r2 the median of traced fresh over untraced repeat. A
/// warm repeat lowers r1 and raises r2 by the same factor, which the
/// geometric mean cancels.
double trace_overhead_frac(const std::vector<Unit>& units);
/// Seconds covered by the timed parts of untraced units of fresh inputs.
double untraced_seconds(const std::vector<Unit>& units);

/// Adds "<name>" = median traced value to `result`.
void add_traced(RunResult& result, const std::vector<Unit>& units,
                const std::string& name);

/// Adds the cost of one unit over the untraced units (cold first unit
/// skipped), summed over its stages (`values["stage.<name>"]`, ms):
/// `unit_ref`, each stage's median in multiples of the unit's reference
/// time, and `unit_s`, each stage's median in seconds; plus
/// `host.reference_ms`, the median reference time.
void add_unit_cost(RunResult& result, const std::vector<Unit>& units);

std::vector<Unit> run_paper(const Context& ctx, RunResult& result);
std::vector<Unit> run_fleet(const Context& ctx, RunResult& result);
std::vector<Unit> run_handshake(const Context& ctx, RunResult& result);

}  // namespace perfbench
