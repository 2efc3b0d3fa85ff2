// IotlsStudy — the top-level orchestrator and public entry point.
//
// One object owns the testbed and lazily runs each of the paper's
// experiments; every table and figure has a structured accessor (for code)
// and a `render_*` method (for humans / the bench binaries).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fpstudy.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/party.hpp"
#include "analysis/revocation.hpp"
#include "analysis/staleness.hpp"
#include "analysis/summary.hpp"
#include "core/table4.hpp"
#include "mitm/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe/prober.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "testbed/testbed.hpp"

namespace iotls::core {

/// Wall/CPU cost of one lazily-run experiment (the parallel fan-out's
/// speedup report; `tasks` = per-device units fanned out over the pool).
struct ExperimentTiming {
  std::string name;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::size_t tasks = 0;
  std::size_t threads = 0;
};

class IotlsStudy {
 public:
  struct Options {
    std::uint64_t seed = 42;
    /// Scales the synthetic passive dataset's connection counts.
    double passive_scale = 1.0;
    /// Restrict the passive window (full study by default).
    common::Month passive_first = common::kStudyStart;
    common::Month passive_last = common::kStudyEnd;
    /// Worker threads for the per-device experiment fan-out: 0 = hardware
    /// concurrency, 1 = serial. Every table and figure is byte-identical
    /// across all values (see DESIGN.md, "Concurrency model").
    std::size_t threads = 0;
    /// CA universe override (nullptr = CaUniverse::standard()); mostly for
    /// tests that want a smaller, faster universe.
    const pki::CaUniverse* universe = nullptr;
    /// Handshake tracing level (IOTLS_TRACE in the bench binaries). Traces
    /// are deterministic: byte-identical at any `threads` value, and every
    /// table/figure is byte-identical whether tracing is on or off.
    obs::TraceLevel trace_level = obs::TraceLevel::Off;
    /// Enables the hot-path metric counters (IOTLS_METRICS in the bench
    /// binaries). Process-wide: the constructor flips the global
    /// obs::set_metrics_enabled() switch, so the most recent study wins.
    /// Metrics are an operator surface — wall-clock/scheduling dependent,
    /// never an input to any table, figure, or trace.
    bool metrics_enabled = false;
    /// Load the passive dataset from this capture-store directory instead
    /// of generating it (the seed/scale/window knobs above then describe
    /// the run that *wrote* the store, not a fresh generation).
    std::string passive_store;
  };

  IotlsStudy() : IotlsStudy(Options{}) {}
  explicit IotlsStudy(Options options);

  [[nodiscard]] testbed::Testbed& testbed() { return *testbed_; }
  [[nodiscard]] const pki::CaUniverse& universe() const {
    return testbed_->universe();
  }

  // ---- datasets & experiment results (lazily computed, cached) ----
  const testbed::PassiveDataset& passive_dataset();
  /// The passive dataset folded once over the study window — the single
  /// input Figs 1-3, Table 8 and the §5.1 summary are derived from.
  const analysis::DatasetFold& passive_fold();
  /// Write the passive dataset into `dir` as a sharded capture store
  /// (seed/window metadata filled from this study's options).
  store::StoreWriteReport export_passive_store(const std::string& dir,
                                               store::StoreOptions options =
                                                   store::StoreOptions{});
  const std::vector<LibraryProbeRow>& library_probe_rows();       // Table 4
  const mitm::DowngradeReport& downgrade_report();                // Table 5
  const mitm::OldVersionReport& old_version_report();             // Table 6
  const mitm::InterceptionReport& interception_report();          // Table 7
  const analysis::RevocationSummary& revocation_summary();        // Table 8
  /// device → (common-set result, deprecated-set result).
  struct RootStoreExploration {
    probe::ExplorationResult common;
    probe::ExplorationResult deprecated;
  };
  const std::map<std::string, RootStoreExploration>& root_store_results();
  const analysis::StalenessReport& staleness();                   // Fig 4
  const analysis::FingerprintStudy& fingerprint_study();          // Fig 5
  const analysis::StudySummary& summary();

  // ---- paper-style renderings ----
  std::string render_table1() const;
  std::string render_table2() const;
  std::string render_table3() const;
  std::string render_table4();
  std::string render_table5();
  std::string render_table6();
  std::string render_table7();
  std::string render_table8();
  std::string render_table9();
  std::string render_fig1();
  std::string render_fig2();
  std::string render_fig3();
  std::string render_fig4();
  std::string render_fig5();
  std::string render_summary();

  // ---- observability ----
  /// The process-wide metrics registry (scrape with render_prometheus()).
  [[nodiscard]] obs::MetricsRegistry& metrics() const {
    return obs::MetricsRegistry::global();
  }
  /// Structured handshake traces collected so far (merged in catalog order
  /// by the experiment drivers — byte-identical at any thread count).
  [[nodiscard]] const obs::TraceLog& traces() const { return trace_log_; }

  /// Timings of the experiments run so far, in execution order. The data
  /// lives in the metrics registry (iotls_experiment_* gauges); this view
  /// reconstructs the familiar struct form.
  [[nodiscard]] std::vector<ExperimentTiming> timings() const;
  /// The per-experiment timing report the bench binaries print after their
  /// renderings. Non-deterministic by nature — never part of a table,
  /// figure or the §5.1 summary.
  [[nodiscard]] std::string render_timings() const;

 private:
  /// Run one experiment under the wall/CPU stopwatch.
  template <typename Fn>
  auto timed(std::string name, std::size_t tasks, Fn&& fn);
  /// Publish one experiment's timing into the registry gauges.
  void record_timing(const std::string& name, double wall_ms, double cpu_ms,
                     std::size_t tasks);

  Options options_;
  obs::TraceLog trace_log_;
  /// Names of experiments run, in order — the keys timings() reads back
  /// from the iotls_experiment_* gauge families.
  std::vector<std::string> experiment_order_;
  std::unique_ptr<testbed::Testbed> testbed_;
  std::unique_ptr<probe::RootStoreProber> prober_;

  std::optional<testbed::PassiveDataset> passive_;
  std::optional<analysis::DatasetFold> passive_fold_;
  std::optional<std::vector<LibraryProbeRow>> table4_;
  std::optional<mitm::DowngradeReport> downgrade_;
  std::optional<mitm::OldVersionReport> old_versions_;
  std::optional<mitm::InterceptionReport> interception_;
  std::optional<analysis::RevocationSummary> revocation_;
  std::optional<std::map<std::string, RootStoreExploration>> root_stores_;
  std::optional<analysis::StalenessReport> staleness_;
  std::optional<analysis::FingerprintStudy> fingerprints_;
  std::optional<analysis::StudySummary> summary_;
};

}  // namespace iotls::core
