// `paper`: the product. A closed loop with one caller renders Tables 1-9,
// Figs 1-5 and the §5.1 summary for consecutive study seeds, each in a fresh
// IotlsStudy, and checks every rendering against its committed digest.
#include <optional>
#include <utility>

#include "core/study.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using iotls::core::IotlsStudy;

constexpr std::uint64_t kStudySeedBase = 42;
constexpr std::uint64_t kHoldoutStudySeedBase = 4242;

/// The spans a seed's work is credited to, in the order they run, with
/// their per-layer metric. Each span wraps the public calls that first
/// trigger that layer's work; the IotlsStudy accessors are lazy, so a
/// rendering runs its experiment.
const std::pair<const char*, const char*> kLayers[] = {
    {"testbed.build", "testbed.build_ms"},
    {"testbed.passive", "testbed.passive_ms"},
    {"core.table4", "core.table4_ms"},
    {"mitm.downgrade", "mitm.downgrade_ms"},
    {"mitm.old_version", "mitm.old_version_ms"},
    {"mitm.interception", "mitm.interception_ms"},
    {"probe.root_store", "probe.root_store_ms"},
    {"fingerprint.study", "fingerprint.study_ms"},
    {"analysis", "analysis.ms"},
};

/// Fanned-out experiments (IotlsStudy::timings() names) and the layer
/// their parallel efficiency is credited to.
const std::pair<const char*, const char*> kFanOuts[] = {
    {"passive-dataset", "testbed.passive"},
    {"downgrade", "mitm.downgrade"},
    {"old-version", "mitm.old_version"},
    {"interception", "mitm.interception"},
    {"root-store-exploration", "probe.root_store"},
    {"fingerprint", "fingerprint.study"},
};

/// Registry families counted in traced units, by per-layer metric name.
const std::pair<const char*, const char*> kCounts[] = {
    {"tls.handshakes", "iotls_tls_handshakes_total"},
    {"tls.server_handshakes", "iotls_tls_server_handshakes_total"},
    {"tls.alerts", "iotls_tls_alerts_total"},
    {"tls.validation_failures", "iotls_tls_validation_failures_total"},
    {"mitm.interceptions", "iotls_mitm_interceptions_total"},
    {"probe.verdicts", "iotls_probe_verdicts_total"},
    {"testbed.fallback_retries", "iotls_testbed_fallback_retries_total"},
};

using Renderings = std::vector<std::pair<std::string, std::string>>;

/// The EXPERIMENTS.md "exact" anchors, which hold at study seed 42.
void check_seed42_anchors(IotlsStudy& study, RunResult& result) {
  std::size_t amenable = 0;
  for (const auto& row : study.library_probe_rows()) amenable += row.amenable;
  result.attempt(study.library_probe_rows().size() == 6 && amenable == 2,
                 "seed 42: Table 4 is not 2/6 amenable");
  result.attempt(study.downgrade_report().rows.size() == 7,
                 "seed 42: Table 5 does not have 7 rows");
  const auto& interception = study.interception_report();
  result.attempt(interception.rows.size() == 11 &&
                     interception.devices_with_sensitive_leaks == 7,
                 "seed 42: Table 7 is not 7/11 leaking");
  const auto& fingerprints = study.fingerprint_study();
  result.attempt(fingerprints.single_instance_devices() == 18 &&
                     fingerprints.multi_instance_devices() == 14 &&
                     fingerprints.sharing_devices() == 19,
                 "seed 42: Fig 5 is not 18/14/19");
  result.attempt(study.root_store_results().size() == 8 &&
                     study.universe().common_ca_names().size() == 122 &&
                     study.universe().deprecated_ca_names().size() == 87,
                 "seed 42: Table 9 is not 8 devices over 122/87");
}

}  // namespace

std::vector<Unit> run_paper(const Context& ctx, RunResult& result) {
  SpanRecorder& spans = *ctx.spans;
  auto units = run_units(ctx, [&](std::size_t input, bool traced, Unit& unit) {
    const std::uint64_t seed =
        ctx.input_seed(kStudySeedBase, kHoldoutStudySeedBase, input);
    Renderings out;
    std::optional<IotlsStudy> study;

    const std::uint64_t start = now_ns();
    {
      const ScopedSpan unit_span(spans, "paper.seed", seed);
      const auto layer = [&](const char* name, auto&& fn) {
        const std::uint64_t layer_start = now_ns();
        {
          const ScopedSpan span(spans, name, seed, unit_span.id());
          fn();
        }
        unit.values[std::string("stage.") + name] =
            ms_between(layer_start, now_ns());
      };
      layer("testbed.build", [&] {
        IotlsStudy::Options options;
        options.seed = seed;
        options.threads = kThreads;
        options.universe = ctx.universe;
        options.metrics_enabled = traced;
        study.emplace(options);
      });
      layer("testbed.passive", [&] { (void)study->passive_dataset(); });
      layer("core.table4",
            [&] { out.emplace_back("table4", study->render_table4()); });
      layer("mitm.downgrade",
            [&] { out.emplace_back("table5", study->render_table5()); });
      layer("mitm.old_version",
            [&] { out.emplace_back("table6", study->render_table6()); });
      layer("mitm.interception",
            [&] { out.emplace_back("table7", study->render_table7()); });
      layer("probe.root_store",
            [&] { out.emplace_back("table9", study->render_table9()); });
      layer("fingerprint.study",
            [&] { out.emplace_back("fig5", study->render_fig5()); });
      layer("analysis", [&] {
        out.emplace_back("table1", study->render_table1());
        out.emplace_back("table2", study->render_table2());
        out.emplace_back("table3", study->render_table3());
        out.emplace_back("table8", study->render_table8());
        out.emplace_back("fig1", study->render_fig1());
        out.emplace_back("fig2", study->render_fig2());
        out.emplace_back("fig3", study->render_fig3());
        out.emplace_back("fig4", study->render_fig4());
        out.emplace_back("summary",
                         strip_timing_footer(study->render_summary()));
      });
    }
    const double wall_ms = ms_between(start, now_ns());

    {
      const UntracedScope checks(ctx, traced);
      for (const auto& [id, text] : out) {
        ctx.golden->check("paper/" + std::to_string(seed) + "/" + id,
                          sha256_hex(text), result);
      }
      if (seed == 42) check_seed42_anchors(*study, result);
    }

    if (traced) {
      for (const auto& t : study->timings()) {
        for (const auto& [experiment, layer] : kFanOuts) {
          if (t.name == experiment && t.wall_ms > 0.0 && t.threads > 0) {
            unit.values[std::string(layer) + "_par_eff"] =
                t.cpu_ms / (t.wall_ms * static_cast<double>(t.threads));
          }
        }
      }
    }
    return wall_ms;
  });

  // Layer self times, from the spans of the traced units (in run order).
  const auto rows = self_ms_per_unit(spans.spans(), "paper.seed");
  std::size_t row = 0;
  for (Unit& unit : units) {
    if (!unit.traced || row >= rows.size()) continue;
    const auto& times = rows[row++];
    for (const auto& [span, metric] : kLayers) {
      const auto it = times.find(span);
      unit.values[metric] = it == times.end() ? 0.0 : it->second;
    }
    unit.values["core.unattributed_frac"] =
        unit.wall_ms > 0.0 ? times.at("paper.seed") / unit.wall_ms : 0.0;
    for (const auto& [name, family] : kCounts) {
      unit.values[name] = family_total(unit.registry, family);
    }
  }

  add_unit_cost(result, units);
  if (ctx.trace) {
    for (const auto& [span, metric] : kLayers) {
      add_traced(result, units, metric);
    }
    add_traced(result, units, "core.unattributed_frac");
    for (const auto& [experiment, layer] : kFanOuts) {
      add_traced(result, units, std::string(layer) + "_par_eff");
    }
    for (const auto& [name, family] : kCounts) {
      add_traced(result, units, name);
    }
  }
  return units;
}

}  // namespace perfbench
