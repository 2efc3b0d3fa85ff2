// Root-store exploration: the paper's novel technique (§4.2) end to end.
//
// For a chosen device it (1) verifies amenability, (2) probes the common
// and deprecated certificate sets, and (3) flags distrusted CAs found.
//
// Usage: ./build/examples/root_store_probe [device-name]  (default: LG TV)
#include <cstdio>

#include "probe/prober.hpp"

int main(int argc, char** argv) {
  using namespace iotls;
  const std::string device = argc > 1 ? argv[1] : "LG TV";

  testbed::Testbed tb;
  const auto& universe = tb.universe();
  probe::RootStoreProber prober(tb);

  if (devices::find_device(device) == nullptr) {
    std::fprintf(stderr, "unknown device: %s\n", device.c_str());
    return 1;
  }

  std::printf("amenability check for %s... ", device.c_str());
  if (!prober.device_amenable(device)) {
    std::printf("NOT amenable (its TLS stack does not distinguish "
                "unknown-CA from bad-signature via alerts).\n");
    std::printf("amenable devices:");
    for (const auto& name : probe::eligible_devices()) {
      if (prober.device_amenable(name)) std::printf(" [%s]", name.c_str());
    }
    std::printf("\n");
    return 0;
  }
  std::printf("amenable.\n\n");

  // Empty masks: every candidate is probed.
  const auto common_result =
      prober.explore(device, universe.common_ca_names(), {});
  std::printf("common set:     %d/%d present (%.0f%%)\n",
              common_result.present, common_result.checked,
              common_result.fraction() * 100);

  const auto deprecated_result =
      prober.explore(device, universe.deprecated_ca_names(), {});
  std::printf("deprecated set: %d/%d present (%.0f%%)\n\n",
              deprecated_result.present, deprecated_result.checked,
              deprecated_result.fraction() * 100);

  std::printf("deprecated-yet-trusted roots on this device:\n");
  for (const auto& [ca, verdict] : deprecated_result.verdicts) {
    if (verdict != probe::Verdict::Present) continue;
    const auto year = universe.removal_year(ca);
    std::printf("  %-40s removed %d%s\n", ca.c_str(), year.value_or(0),
                universe.is_distrusted(ca) ? "  ** EXPLICITLY DISTRUSTED **"
                                           : "");
  }
  return 0;
}
