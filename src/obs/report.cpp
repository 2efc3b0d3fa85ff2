#include "obs/report.hpp"

#include <cstdio>
#include <set>
#include <stdexcept>

#include "common/env.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

// Build identity defaults: the obs CMakeLists passes the real values; the
// fallbacks keep non-CMake tooling (clangd, single-file builds) compiling.
#ifndef IOTLS_VERSION_STRING
#define IOTLS_VERSION_STRING "0.0.0"
#endif
#ifndef IOTLS_BUILD_TYPE
#define IOTLS_BUILD_TYPE "unknown"
#endif
#ifndef IOTLS_SANITIZERS
#define IOTLS_SANITIZERS "none"
#endif

namespace iotls::obs {

using common::json_quote;

const BuildInfo& build_info() {
  static const BuildInfo info{IOTLS_VERSION_STRING, __VERSION__,
                              IOTLS_BUILD_TYPE, IOTLS_SANITIZERS};
  return info;
}

std::string build_info_label() {
  const BuildInfo& info = build_info();
  return "version=" + info.version + ";compiler=" + info.compiler +
         ";build=" + info.build_type + ";san=" + info.sanitizers;
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::string render_run_report_json(const RunReport& report) {
  const BuildInfo& info = build_info();
  std::string out = "{\n";
  out += "  \"schema\": \"iotls-run-report/1\",\n";
  out += "  \"tool\": " + json_quote(report.tool) + ",\n";
  out += "  \"build\": {\"version\": " + json_quote(info.version) +
         ", \"compiler\": " + json_quote(info.compiler) +
         ", \"build_type\": " + json_quote(info.build_type) +
         ", \"sanitizers\": " + json_quote(info.sanitizers) + "},\n";
  out += "  \"knobs\": {";
  std::set<std::string> names;
  for (const auto& [name, value] : report.knobs) {
    if (!names.insert(name).second) {
      throw std::invalid_argument("duplicate run-report knob: " + name);
    }
    if (names.size() > 1) out += ", ";
    out += json_quote(name) + ": " + json_quote(value);
  }
  out += "},\n";
  const ProfileSnapshot snapshot = profile_snapshot();
  out += "  \"profile\": {\"enabled\": ";
  out += profile_enabled() ? "true" : "false";
  out += ", \"tree\": " + profile_tree_to_json(snapshot.root) + "},\n";
  out += "  \"metrics\": " + MetricsRegistry::global().render_json() + ",\n";
  out += "  \"peak_rss_bytes\": " + std::to_string(peak_rss_bytes()) + "\n";
  out += "}\n";
  return out;
}

bool write_run_report(const RunReport& report, const std::string& path) {
  const std::string body = render_run_report_json(report);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write run report %s\n",
                 path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), out) ==
                  body.size();
  std::fclose(out);
  if (!ok) {
    std::fprintf(stderr, "error: short write on run report %s\n",
                 path.c_str());
  }
  return ok;
}

std::vector<std::pair<std::string, std::string>> cli_knobs(
    const std::string& command, const std::vector<std::string>& args,
    int exit_code) {
  std::vector<std::pair<std::string, std::string>> knobs;
  if (!command.empty()) knobs.emplace_back("command", command);
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string name = "arg";
    knobs.emplace_back(name.append(std::to_string(i + 1)), args[i]);
  }
  knobs.emplace_back("IOTLS_PROFILE", profile_enabled() ? "1" : "0");
  knobs.emplace_back("exit_code", std::to_string(exit_code));
  return knobs;
}

void emit_run_telemetry(
    const std::string& tool,
    std::vector<std::pair<std::string, std::string>> knobs, std::FILE* out) {
  if (profile_enabled()) {
    const ProfileSnapshot snapshot = profile_snapshot();
    if (!snapshot.root.children.empty()) {
      std::fputs("\n==== profile (IOTLS_PROFILE) ====\n", out);
      std::fputs(render_profile(snapshot).c_str(), out);
    }
  }
  const char* path = common::env_string("IOTLS_RUN_REPORT", "");
  if (*path == '\0') return;
  RunReport report;
  report.tool = tool;
  report.knobs = std::move(knobs);
  if (write_run_report(report, path)) {
    std::fprintf(out, "wrote run report %s\n", path);
  }
}

}  // namespace iotls::obs
