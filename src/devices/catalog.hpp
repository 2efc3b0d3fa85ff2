// The 40-device testbed catalogue (Table 1), with every per-device
// behaviour parameterised from the paper's findings:
//   Table 5  — downgrade-on-failure devices and susceptible destinations
//   Table 6  — devices accepting TLS 1.0/1.1
//   Table 7  — interception-vulnerable devices (per-destination)
//   Table 8  — revocation-checking support
//   Table 9  — root-store composition of the 8 probeable devices
//   Figs 1-3 — firmware-update timeline / longitudinal transitions
//   Fig 5    — shared TLS instances within and across vendors
#pragma once

#include <string>
#include <vector>

#include "devices/profile.hpp"

namespace iotls::devices {

/// All 40 devices, stable order (grouped by Table 1 category).
const std::vector<DeviceProfile>& device_catalog();

/// The 32 devices used in active experiments.
std::vector<const DeviceProfile*> active_devices();

/// Their names, in catalog order.
std::vector<std::string> active_device_names();

/// nullptr if unknown.
const DeviceProfile* find_device(const std::string& name);

/// Shared *TLS instance family* configurations. Devices embedding the same
/// library+configuration reference the same family, which is what makes
/// their fingerprints collide (Fig 5). Known families:
///   "amazon-main"     — android-sdk derivative used across Echo/Fire TV
///   "amazon-legacy"   — the hostname-check-skipping instance (Table 7)
///   "amazon-ota"      — OTA-update client shared by all Amazon devices
///   "openssl-iot"     — stock OpenSSL config (six devices, Fig 5)
///   "mbedtls-embedded"— MbedTLS config for low-end devices
///   "apple"           — Apple Secure Transport stack
///   "microsoft"       — Microsoft SDK stack (Harman Invoke)
///   "samsung-tizen"   — Samsung appliance stack
///   "google-home"     — Google Home Mini stack
tls::ClientConfig family_config(const std::string& family);

}  // namespace iotls::devices

// Internal: per-category builders (one translation unit each).
namespace iotls::devices::detail {
std::vector<DeviceProfile> build_amazon_devices();
std::vector<DeviceProfile> build_apple_google_devices();
std::vector<DeviceProfile> build_camera_hub_devices();
std::vector<DeviceProfile> build_home_tv_appliance_devices();

/// Generate `count` destination specs "svc00.domain" .. with the first
/// `susceptible` flagged downgrade-susceptible and the last `intermittent`
/// flagged as not always present.
std::vector<DestinationSpec> make_destinations(
    const std::string& domain, int count, const std::string& instance_id,
    int susceptible = 0, int intermittent = 0);
}  // namespace iotls::devices::detail
