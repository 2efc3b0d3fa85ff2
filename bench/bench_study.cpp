// Paper reproduction: renders the requested tables and figures from one
// IotlsStudy, so the CA universe, testbed and every lazily run experiment
// are paid for once per process. Each id prints its banner, body and a
// `[... generated in N ms]` line; the per-experiment timing table, the
// observability surfaces (IOTLS_TRACE / IOTLS_METRICS / IOTLS_PROFILE) and
// the run report (IOTLS_RUN_REPORT) follow once, after the last id.
//
// Usage: bench_study [id...]
//   ids: table1 ... table9, summary, fig1 ... fig5; with none, all 15 are
//   rendered in that order. An unknown id exits 2 and lists the valid ids.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"

namespace {

using iotls::core::IotlsStudy;

struct Reproduction {
  const char* id;
  const char* title;
  std::string (*render)(IotlsStudy&);
};

constexpr Reproduction kReproductions[] = {
    {"table1", "Table 1 (device inventory)",
     [](IotlsStudy& s) { return s.render_table1(); }},
    {"table2", "Table 2 (interception attacks)",
     [](IotlsStudy& s) { return s.render_table2(); }},
    {"table3", "Table 3 (root-store sources)",
     [](IotlsStudy& s) { return s.render_table3(); }},
    {"table4", "Table 4 (library probe matrix)",
     [](IotlsStudy& s) { return s.render_table4(); }},
    {"table5", "Table 5 (downgrade on failure)",
     [](IotlsStudy& s) { return s.render_table5(); }},
    {"table6", "Table 6 (old version support)",
     [](IotlsStudy& s) { return s.render_table6(); }},
    {"table7", "Table 7 (interception vulnerability)",
     [](IotlsStudy& s) { return s.render_table7(); }},
    {"table8", "Table 8 (revocation support)",
     [](IotlsStudy& s) { return s.render_table8(); }},
    {"table9", "Table 9 (root-store exploration)",
     [](IotlsStudy& s) { return s.render_table9(); }},
    {"summary", "Summary statistics (§5.1)",
     [](IotlsStudy& s) { return s.render_summary(); }},
    {"fig1", "Fig 1 (TLS versions over time)",
     [](IotlsStudy& s) { return s.render_fig1(); }},
    {"fig2", "Fig 2 (insecure suites advertised)",
     [](IotlsStudy& s) { return s.render_fig2(); }},
    {"fig3", "Fig 3 (strong suites established)",
     [](IotlsStudy& s) { return s.render_fig3(); }},
    {"fig4", "Fig 4 (root staleness)",
     [](IotlsStudy& s) { return s.render_fig4(); }},
    {"fig5", "Fig 5 (fingerprint sharing)",
     [](IotlsStudy& s) { return s.render_fig5(); }},
};

const Reproduction* find_reproduction(std::string_view id) {
  for (const Reproduction& r : kReproductions) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Reproduction*> selected;
  for (int i = 1; i < argc; ++i) {
    const Reproduction* r = find_reproduction(argv[i]);
    if (r == nullptr) {
      std::fprintf(stderr, "error: unknown id '%s'; valid ids:", argv[i]);
      for (const Reproduction& known : kReproductions) {
        std::fprintf(stderr, " %s", known.id);
      }
      std::fputs("\n", stderr);
      return 2;
    }
    selected.push_back(r);
  }
  if (selected.empty()) {
    for (const Reproduction& r : kReproductions) selected.push_back(&r);
  }

  const auto options = iotls::bench::reproduction_options();
  IotlsStudy study(options);
  for (const Reproduction* r : selected) {
    iotls::bench::run_reproduction(r->title,
                                   [&] { return r->render(study); });
  }
  iotls::bench::print_timings(study);
  iotls::bench::print_observability(study);
  iotls::obs::emit_run_telemetry(
      "bench_study", iotls::bench::reproduction_knobs(options), stdout);
  return 0;
}
