#include "core/study.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "common/pool.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "devices/catalog.hpp"
#include "obs/profile.hpp"

namespace iotls::core {

template <typename Fn>
auto IotlsStudy::timed(std::string name, std::size_t tasks, Fn&& fn) {
  const obs::ProfileZone zone("study/" + name);
  const obs::WallTimer wall;
  // CPU time feeds only the timing report, never a study table.
  const std::clock_t cpu0 = std::clock();  // iotls-lint: allow(determinism)
  auto result = fn();
  const std::clock_t cpu1 = std::clock();  // iotls-lint: allow(determinism)

  const double cpu_ms =
      1000.0 * static_cast<double>(cpu1 - cpu0) / CLOCKS_PER_SEC;
  record_timing(name, wall.elapsed_ms(), cpu_ms, tasks);
  return result;
}

void IotlsStudy::record_timing(const std::string& name, double wall_ms,
                               double cpu_ms, std::size_t tasks) {
  const ExperimentTiming& t = timings_.emplace_back(ExperimentTiming{
      name, wall_ms, cpu_ms, tasks,
      common::resolve_threads(options_.threads)});
  // Also published for scrapes and run reports, one gauge family per
  // column labelled by experiment. The gauges are process-wide: a later
  // study's run of the same experiment overwrites them.
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("iotls_experiment_wall_ms", "Experiment wall-clock time",
            "experiment", name)
      .set(t.wall_ms);
  reg.gauge("iotls_experiment_cpu_ms", "Experiment CPU time (all threads)",
            "experiment", name)
      .set(t.cpu_ms);
  reg.gauge("iotls_experiment_tasks", "Per-device tasks fanned out",
            "experiment", name)
      .set(static_cast<double>(t.tasks));
  reg.gauge("iotls_experiment_threads", "Worker threads used", "experiment",
            name)
      .set(static_cast<double>(t.threads));
}

IotlsStudy::IotlsStudy(Options options)
    : options_(options), trace_log_(options.trace_level) {
  obs::set_metrics_enabled(options_.metrics_enabled);
  recipe_.seed = options_.seed;
  recipe_.universe = options_.universe != nullptr
                         ? options_.universe
                         : &pki::CaUniverse::standard();
  recipe_.trace = &trace_log_;
}

const testbed::PassiveDataset& IotlsStudy::passive_dataset() {
  if (!passive_) {
    testbed::GeneratorOptions gen;
    gen.seed = options_.seed ^ 0x9A55;
    gen.universe = options_.universe;
    gen.count_scale = options_.passive_scale;
    gen.first = options_.passive_first;
    gen.last = options_.passive_last;
    gen.threads = options_.threads;
    passive_ = timed("passive-dataset", devices::device_catalog().size(),
                     [&] { return testbed::generate_passive_dataset(gen); });
  }
  return *passive_;
}

const analysis::DatasetFold& IotlsStudy::passive_fold() {
  if (!passive_fold_) {
    const auto& dataset = passive_dataset();
    passive_fold_ = timed("passive-fold", 0, [&] {
      return analysis::fold_dataset(dataset, analysis::study_months());
    });
  }
  return *passive_fold_;
}

store::StoreWriteReport IotlsStudy::export_passive_store(
    const std::string& dir, store::StoreOptions options) {
  options.seed = options_.seed ^ 0x9A55;
  options.first = options_.passive_first;
  options.last = options_.passive_last;
  if (options.threads == 0) options.threads = options_.threads;
  return store::write_store(passive_dataset(), dir, options);
}

const std::vector<LibraryProbeRow>& IotlsStudy::library_probe_rows() {
  if (!table4_) {
    table4_ = timed("library-probe-matrix", 0,
                    [&] { return run_library_probe_matrix(options_.seed); });
  }
  return *table4_;
}

const mitm::DowngradeReport& IotlsStudy::downgrade_report() {
  if (!downgrade_) {
    downgrade_ = timed("downgrade", devices::active_devices().size(), [&] {
      return mitm::run_downgrade_experiments(recipe_, options_.threads);
    });
  }
  return *downgrade_;
}

const mitm::OldVersionReport& IotlsStudy::old_version_report() {
  if (!old_versions_) {
    old_versions_ =
        timed("old-version", devices::active_devices().size(), [&] {
          return mitm::run_old_version_experiments(recipe_,
                                                   options_.threads);
        });
  }
  return *old_versions_;
}

const mitm::InterceptionReport& IotlsStudy::interception_report() {
  if (!interception_) {
    interception_ =
        timed("interception", devices::active_devices().size(), [&] {
          return mitm::run_interception_experiments(recipe_, 4,
                                                    options_.threads);
        });
  }
  return *interception_;
}

const mitm::PassthroughReport& IotlsStudy::passthrough_report() {
  if (!passthrough_) {
    passthrough_ =
        timed("passthrough", devices::active_devices().size(), [&] {
          return mitm::run_passthrough_experiments(recipe_, options_.threads);
        });
  }
  return *passthrough_;
}

const analysis::RevocationSummary& IotlsStudy::revocation_summary() {
  if (!revocation_) {
    revocation_ = analysis::analyze_revocation(passive_fold());
  }
  return *revocation_;
}

const std::map<std::string, probe::RootStoreExploration>&
IotlsStudy::root_store_results() {
  if (!root_stores_) {
    root_stores_ = timed(
        "root-store-exploration", probe::eligible_devices().size(), [&] {
          return probe::explore_root_stores(recipe_, options_.seed ^ 0xF00D,
                                            options_.threads);
        });
  }
  return *root_stores_;
}

const analysis::StalenessReport& IotlsStudy::staleness() {
  if (!staleness_) {
    std::map<std::string, probe::ExplorationResult> deprecated_only;
    for (const auto& [device, exploration] : root_store_results()) {
      deprecated_only.emplace(device, exploration.deprecated);
    }
    staleness_ = analysis::staleness_report(universe(), deprecated_only);
  }
  return *staleness_;
}

const analysis::FingerprintStudy& IotlsStudy::fingerprint_study() {
  if (!fingerprints_) {
    fingerprints_ =
        timed("fingerprint", devices::active_devices().size(), [&] {
          return analysis::run_fingerprint_study(recipe_, options_.threads);
        });
  }
  return *fingerprints_;
}

const analysis::StudySummary& IotlsStudy::summary() {
  if (!summary_) summary_ = analysis::summarize(passive_fold());
  return *summary_;
}

// ---------------- renderings ----------------

std::string IotlsStudy::render_table1() const {
  common::TextTable table({"Device", "Category", "Experiments"});
  for (const auto& d : devices::device_catalog()) {
    table.add_row({d.name, d.category,
                   d.active ? "active + passive" : "passive only"});
  }
  return "Table 1: the 40 TLS-supporting devices\n" + table.render();
}

std::string IotlsStudy::render_table2() const {
  common::TextTable table({"Attack", "Description"});
  for (const auto kind : mitm::all_attacks()) {
    table.add_row({mitm::attack_name(kind), mitm::attack_description(kind)});
  }
  return "Table 2: TLS interception attacks\n" + table.render();
}

std::string IotlsStudy::render_table3() const {
  common::TextTable table(
      {"Platform", "Total versions", "Earliest year", "Comments"});
  for (const auto& h : universe().histories()) {
    table.add_row({h.platform, std::to_string(h.versions.size()),
                   std::to_string(h.earliest().year), h.source_comment});
  }
  return "Table 3: historical root-store sources\n" + table.render();
}

std::string IotlsStudy::render_table4() {
  common::TextTable table({"Library", "Known CA w/ invalid signature",
                           "Unknown CA", "Amenable"});
  for (const auto& row : library_probe_rows()) {
    table.add_row({row.label,
                   tls::alert_display(row.alert_known_ca_bad_signature),
                   tls::alert_display(row.alert_unknown_ca),
                   row.amenable ? "yes" : "no"});
  }
  return "Table 4: root-store probing across TLS libraries\n" +
         table.render();
}

std::string IotlsStudy::render_table5() {
  common::TextTable table({"Device", "Failed HS", "Incomplete HS",
                           "Behavior", "Downgraded/Total"});
  for (const auto& row : downgrade_report().rows) {
    table.add_row({row.device, row.on_failed_handshake ? "yes" : "no",
                   row.on_incomplete_handshake ? "yes" : "no", row.behavior,
                   std::to_string(row.downgraded_destinations) + " / " +
                       std::to_string(row.total_destinations)});
  }
  return "Table 5: devices that downgrade security on failures\n" +
         table.render();
}

std::string IotlsStudy::render_table6() {
  common::TextTable table({"Device", "TLS 1.0", "TLS 1.1"});
  for (const auto& row : old_version_report().rows) {
    table.add_row({row.device, row.tls10 ? "yes" : "no",
                   row.tls11 ? "yes" : "no"});
  }
  return "Table 6: devices supporting older TLS versions (" +
         std::to_string(old_version_report().rows.size()) + " devices)\n" +
         table.render();
}

std::string IotlsStudy::render_table7() {
  common::TextTable table({"Device", "No-Validation", "InvalidBC",
                           "Wrong-Hostname", "Vulnerable/Total"});
  for (const auto& row : interception_report().rows) {
    table.add_row({row.device, row.no_validation ? "yes" : "no",
                   row.invalid_basic_constraints ? "yes" : "no",
                   row.wrong_hostname ? "yes" : "no",
                   std::to_string(row.vulnerable_destinations) + " / " +
                       std::to_string(row.total_destinations)});
  }
  auto out = "Table 7: devices vulnerable to TLS interception (" +
             std::to_string(interception_report().rows.size()) +
             " devices)\n" + table.render();
  out += "devices with sensitive data exposed: " +
         std::to_string(interception_report().devices_with_sensitive_leaks) +
         "/" + std::to_string(interception_report().rows.size()) + "\n";
  return out;
}

std::string IotlsStudy::render_table8() {
  return analysis::render_table8(revocation_summary(), 40);
}

std::string IotlsStudy::render_table9() {
  common::TextTable table({"Device",
                           "Common certs (total = " +
                               std::to_string(
                                   universe().common_ca_names().size()) +
                               ")",
                           "Deprecated certs (total = " +
                               std::to_string(
                                   universe().deprecated_ca_names().size()) +
                               ")"});
  auto cell = [](const probe::ExplorationResult& r) {
    return common::percent(r.fraction()) + " (" + std::to_string(r.present) +
           "/" + std::to_string(r.checked) + ")";
  };
  // Paper row order: ascending deprecated fraction.
  std::vector<const std::pair<const std::string, probe::RootStoreExploration>*>
      rows;
  for (const auto& kv : root_store_results()) rows.push_back(&kv);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->second.deprecated.fraction() < b->second.deprecated.fraction();
  });
  for (const auto* kv : rows) {
    table.add_row({kv->first, cell(kv->second.common),
                   cell(kv->second.deprecated)});
  }
  return "Table 9: root stores of " + std::to_string(rows.size()) +
         " probeable devices\n" + table.render();
}

std::string IotlsStudy::render_fig1() {
  const auto& fold = passive_fold();
  return analysis::render_fig1(analysis::all_version_series(fold),
                               fold.months);
}

std::string IotlsStudy::render_fig2() {
  return analysis::render_fig2(analysis::all_cipher_series(passive_fold()));
}

std::string IotlsStudy::render_fig3() {
  return analysis::render_fig3(analysis::all_cipher_series(passive_fold()));
}

std::string IotlsStudy::render_fig4() {
  return "Fig 4: removal year of deprecated roots still present\n" +
         analysis::render_staleness(staleness());
}

std::string IotlsStudy::render_fig5() {
  const auto& study = fingerprint_study();
  std::string out = "Fig 5: shared TLS fingerprints\n";
  out += "devices with a single fingerprint: " +
         std::to_string(study.single_instance_devices()) +
         " (paper: 18/32)\n";
  out += "devices with multiple fingerprints: " +
         std::to_string(study.multi_instance_devices()) +
         " (paper: 14/32)\n";
  out += "devices sharing a fingerprint with others: " +
         std::to_string(study.sharing_devices()) + " (paper: 19)\n\n";
  out += analysis::render_sharing_graph(study);
  return out;
}

std::string IotlsStudy::render_summary() {
  std::string out = analysis::render_summary(summary());
  out += "\n";
  out += analysis::render_party_breakdown(
      analysis::party_version_breakdown(passive_fold()));
  return out;
}

std::string IotlsStudy::render_passthrough() {
  const auto& report = passthrough_report();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "§4.2 TrafficPassthrough: the NoValidation attack repeated, passing "
      "through the hostnames that failed\n"
      "devices tested: %d\n"
      "extra hostnames reached: +%.1f%% (paper: +20.4%%)\n"
      "new certificate validation failures: %s (paper: none)\n",
      report.devices_tested, report.extra_destination_fraction * 100.0,
      report.new_failures_found ? "found" : "none");
  return buf;
}

std::string IotlsStudy::render_timings() const {
  auto ms = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string(buf);
  };
  common::TextTable table(
      {"Experiment", "Wall ms", "CPU ms", "Tasks", "Threads"});
  double wall_total = 0.0;
  double cpu_total = 0.0;
  for (const auto& t : timings()) {
    wall_total += t.wall_ms;
    cpu_total += t.cpu_ms;
    table.add_row({t.name, ms(t.wall_ms), ms(t.cpu_ms),
                   std::to_string(t.tasks), std::to_string(t.threads)});
  }
  table.add_row({"total", ms(wall_total), ms(cpu_total), "", ""});
  return "Experiment timings (" +
         std::to_string(common::resolve_threads(options_.threads)) +
         " worker threads)\n" + table.render();
}

}  // namespace iotls::core
