// iotls-fleet — million-device fleet synthesis + scan campaign CLI
// (DESIGN.md §14).
//
// Usage:
//   iotls-fleet synth <out-dir> [--instances N] [--seed N] [--threads N]
//       [--shard-instances N] [--devices a,b,...] [--resume]
//   iotls-fleet campaign [--instances N] [--seed N] [--threads N]
//       [--sample F] [--store <dir>] [--devices a,b,...]
//
// Exit codes: 0 success, 1 fleet/store error (the typed class name is
// printed), 2 usage error.
#include <charconv>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "fleet/campaign.hpp"
#include "fleet/synth.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"

namespace {

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "iotls-fleet: " << error << "\n";
  std::cerr << "usage:\n"
               "  iotls-fleet synth <out-dir> [--instances N] [--seed N] "
               "[--threads N]\n"
               "      [--shard-instances N] [--devices a,b,...] [--resume]\n"
               "  iotls-fleet campaign [--instances N] [--seed N] "
               "[--threads N]\n"
               "      [--sample F] [--store <dir>] [--devices a,b,...]\n";
  return 2;
}

unsigned long long ull(std::uint64_t v) { return v; }

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) out.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// Shared flag parser; flags both subcommands understand are applied to
/// `fleet`, command-specific ones are handed back via the out-params.
/// Returns -1 on success, otherwise the usage() exit code.
int parse_number(const std::string& flag, const std::string& value,
                 std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), *out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    return usage(flag + ": not a number: " + value);
  }
  return -1;
}

int cmd_synth(const std::vector<std::string>& args) {
  iotls::fleet::SynthOptions options;
  std::string out_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--instances" || arg == "--seed" ||
               arg == "--threads" || arg == "--shard-instances") {
      if (i + 1 == args.size()) return usage(arg + " needs a value");
      std::uint64_t value = 0;
      const int rc = parse_number(arg, args[++i], &value);
      if (rc >= 0) return rc;
      if (arg == "--instances") options.fleet.instances = value;
      if (arg == "--seed") options.fleet.seed = value;
      if (arg == "--threads") options.threads = static_cast<std::size_t>(value);
      if (arg == "--shard-instances") options.shard_instances = value;
    } else if (arg == "--devices") {
      if (i + 1 == args.size()) return usage("--devices needs a value");
      options.fleet.devices = split_csv(args[++i]);
    } else if (out_dir.empty()) {
      out_dir = arg;
    } else {
      return usage("synth takes exactly one out-dir");
    }
  }
  if (out_dir.empty()) return usage("synth needs an out-dir");

  const auto report = iotls::fleet::synthesize_fleet(options, out_dir);
  std::printf("synthesized %llu instances -> %llu shards (%llu reused) in "
              "%s\n",
              ull(report.instances), ull(report.shards),
              ull(report.reused_shards), out_dir.c_str());
  std::printf("  %llu groups, %llu connections, %llu bytes\n",
              ull(report.groups), ull(report.connections), ull(report.bytes));
  std::printf("  template bank: %llu sets, %llu real handshakes\n",
              ull(report.template_sets), ull(report.template_handshakes));
  return 0;
}

int cmd_campaign(const std::vector<std::string>& args) {
  iotls::fleet::CampaignOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--instances" || arg == "--seed" || arg == "--threads") {
      if (i + 1 == args.size()) return usage(arg + " needs a value");
      std::uint64_t value = 0;
      const int rc = parse_number(arg, args[++i], &value);
      if (rc >= 0) return rc;
      if (arg == "--instances") options.fleet.instances = value;
      if (arg == "--seed") options.fleet.seed = value;
      if (arg == "--threads") options.threads = static_cast<std::size_t>(value);
    } else if (arg == "--sample") {
      if (i + 1 == args.size()) return usage("--sample needs a value");
      const std::string& v = args[++i];
      char* end = nullptr;
      const double fraction = std::strtod(v.c_str(), &end);
      if (end != v.c_str() + v.size() || fraction < 0.0 || fraction > 1.0) {
        return usage("--sample: not a fraction in [0,1]: " + v);
      }
      options.sample_fraction.fill(fraction);
    } else if (arg == "--store") {
      if (i + 1 == args.size()) return usage("--store needs a value");
      options.scan_store_dir = args[++i];
    } else if (arg == "--devices") {
      if (i + 1 == args.size()) return usage("--devices needs a value");
      options.fleet.devices = split_csv(args[++i]);
    } else {
      return usage("unknown campaign argument: " + arg);
    }
  }

  const auto report = iotls::fleet::run_campaign(options);
  std::printf("%s", report.tables.render().c_str());
  std::printf("probe bank: %llu keys, %llu real handshakes\n",
              ull(report.probe_keys), ull(report.probe_handshakes));
  if (!report.store.shards.empty()) {
    std::printf("scan store: %zu shards, %llu groups, %llu bytes -> %s\n",
                report.store.shards.size(), ull(report.store.total_groups()),
                ull(report.store.total_bytes()),
                options.scan_store_dir.c_str());
  }
  return 0;
}

int run_command(const std::string& command,
                const std::vector<std::string>& args) {
  if (command == "synth") return cmd_synth(args);
  if (command == "campaign") return cmd_campaign(args);
  return usage("unknown command: " + command);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  iotls::obs::set_profile_enabled(
      iotls::common::strict_env_long("IOTLS_PROFILE", 0) != 0);
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  int exit_code = 1;
  try {
    exit_code = run_command(command, args);
  } catch (const iotls::store::StoreError& e) {
    std::cerr << "iotls-fleet: StoreError: " << e.what() << "\n";
  } catch (const std::invalid_argument& e) {
    std::cerr << "iotls-fleet: invalid_argument: " << e.what() << "\n";
  }
  // Emitted after the command so the profile tree is complete.
  iotls::obs::emit_run_telemetry(
      "iotls-fleet", iotls::obs::cli_knobs(command, args, exit_code), stdout);
  return exit_code;
}
