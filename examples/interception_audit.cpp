// Interception audit: run the full Table 2 attack suite against every
// active device and print a vulnerability report with recovered secrets —
// the §5.2 workflow as a reusable tool.
//
// Usage: ./build/examples/interception_audit [device-name]
#include <cstdio>
#include <cstring>

#include "common/table.hpp"
#include "mitm/runner.hpp"

int main(int argc, char** argv) {
  using namespace iotls;

  if (argc > 1) {
    // Audit a single device in detail.
    const std::string device = argv[1];
    if (devices::find_device(device) == nullptr) {
      std::fprintf(stderr, "unknown device: %s\n", device.c_str());
      return 1;
    }
    testbed::Testbed tb;
    tb.set_date({2021, 3, 15});
    mitm::Interceptor interceptor(tb.universe(), tb.cloud());
    for (const auto attack : mitm::all_attacks()) {
      interceptor.set_mode(mitm::InterceptMode::make_attack(attack));
      interceptor.install(tb.network());
      auto& runtime = tb.runtime(device);
      runtime.reset_failure_state();
      for (int i = 0; i < 4; ++i) {
        (void)runtime.boot(tb.date(), /*include_intermittent=*/true);
      }
      runtime.reset_failure_state();
      std::printf("== %s ==\n", mitm::attack_name(attack).c_str());
      for (const auto& inter : interceptor.drain()) {
        std::printf("  %-32s %s\n", inter.hostname.c_str(),
                    inter.compromised() ? "COMPROMISED" : "protected");
      }
      interceptor.uninstall(tb.network());
    }
    return 0;
  }

  // Every device runs in its own sandbox built from the default recipe.
  const auto report =
      mitm::run_interception_experiments(testbed::Testbed::Options{});
  common::TextTable table({"Device", "NoValidation", "InvalidBC",
                           "WrongHostname", "Vuln/Total", "Leaked secret"});
  for (const auto& row : report.rows) {
    table.add_row({row.device, row.no_validation ? "VULN" : "-",
                   row.invalid_basic_constraints ? "VULN" : "-",
                   row.wrong_hostname ? "VULN" : "-",
                   std::to_string(row.vulnerable_destinations) + "/" +
                       std::to_string(row.total_destinations),
                   row.leaked_samples.empty()
                       ? ""
                       : row.leaked_samples.front().substr(0, 40)});
  }
  std::printf("Interception audit over %d devices — %zu vulnerable\n\n",
              report.devices_tested, report.rows.size());
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n%d device(s) performed no certificate validation at all;\n"
              "%d leaked sensitive data on compromised connections.\n",
              report.devices_without_any_validation,
              report.devices_with_sensitive_leaks);
  std::printf("\n(pass a device name for a per-destination breakdown)\n");
  return 0;
}
