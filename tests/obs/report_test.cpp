// Run-report schema round-trip: render_run_report_json must stay parseable
// and carry the documented fields (DESIGN.md §13) — the contract
// iotls-bench-track and CI artifact consumers rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/json_probe.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"

namespace {

using iotls::common::Json;
using iotls::obs::RunReport;

TEST(RunReport, SchemaRoundTripsThroughTheJsonParser) {
  iotls::obs::set_profile_enabled(true);
  iotls::obs::profile_reset();
  {
    const iotls::obs::ProfileZone zone("report_test/zone");
  }

  RunReport report;
  report.tool = "report_test";
  report.knobs = {{"IOTLS_THREADS", "4"},
                  {"quote\"me", "line\nbreak"},
                  {iotls::common::kJsonProbe, iotls::common::kJsonProbe}};
  const Json doc =
      Json::parse(iotls::obs::render_run_report_json(report));
  iotls::obs::set_profile_enabled(false);
  iotls::obs::profile_reset();

  EXPECT_EQ(doc.at("schema").as_string(), "iotls-run-report/1");
  EXPECT_EQ(doc.at("tool").as_string(), "report_test");

  const Json& build = doc.at("build");
  EXPECT_FALSE(build.at("version").as_string().empty());
  EXPECT_FALSE(build.at("compiler").as_string().empty());
  EXPECT_FALSE(build.at("build_type").as_string().empty());
  EXPECT_FALSE(build.at("sanitizers").as_string().empty());

  const Json& knobs = doc.at("knobs");
  EXPECT_EQ(knobs.at("IOTLS_THREADS").as_string(), "4");
  EXPECT_EQ(knobs.at("quote\"me").as_string(), "line\nbreak");
  EXPECT_EQ(knobs.at(iotls::common::kJsonProbe).as_string(),
            iotls::common::kJsonProbe);

  const Json& profile = doc.at("profile");
  EXPECT_TRUE(profile.at("enabled").as_bool());
  EXPECT_EQ(profile.find("threads"), nullptr);
  EXPECT_EQ(profile.find("events_dropped"), nullptr);
  const Json& tree = profile.at("tree");
  EXPECT_EQ(tree.at("name").as_string(), "<root>");
  EXPECT_EQ(tree.at("children").as_array().at(0).at("name").as_string(),
            "report_test/zone");

  EXPECT_TRUE(doc.at("metrics").is_object());
  EXPECT_GT(doc.at("peak_rss_bytes").as_number(), 0.0);
}

TEST(RunReport, RejectsADuplicateKnobName) {
  // A JSON reader keeps one of two equal keys, so a second "arg" would
  // silently lose the first; CLI arguments are keyed by position instead.
  RunReport report;
  report.tool = "report_test";
  report.knobs = {{"arg1", "synth"}, {"arg2", "store"}};
  const Json doc = Json::parse(iotls::obs::render_run_report_json(report));
  EXPECT_EQ(doc.at("knobs").at("arg2").as_string(), "store");

  report.knobs.emplace_back("arg1", "--instances");
  EXPECT_THROW((void)iotls::obs::render_run_report_json(report),
               std::invalid_argument);
}

TEST(RunReport, WriteRunReportProducesAReadableFile) {
  const std::string path = "report_test_artifact.json";
  RunReport report;
  report.tool = "writer";
  ASSERT_TRUE(iotls::obs::write_run_report(report, path));

  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  EXPECT_EQ(doc.at("tool").as_string(), "writer");
  EXPECT_FALSE(doc.at("profile").at("enabled").as_bool());
  EXPECT_TRUE(doc.at("metrics").is_object());
  std::remove(path.c_str());
}

std::string read_back(std::FILE* f) {
  std::rewind(f);
  std::string text;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    text += static_cast<char>(c);
  }
  return text;
}

TEST(RunReport, EmitRunTelemetryWritesOnlyWhenAPathIsNamed) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ::unsetenv("IOTLS_RUN_REPORT");
  iotls::obs::emit_run_telemetry("quiet", {}, out);
  EXPECT_EQ(read_back(out), "");

  const std::string path = "report_test_telemetry.json";
  ::setenv("IOTLS_RUN_REPORT", path.c_str(), 1);
  iotls::obs::emit_run_telemetry("telemetry", {{"exit_code", "3"}}, out);
  ::unsetenv("IOTLS_RUN_REPORT");
  std::string expected = "wrote run report ";
  expected.append(path).append("\n");
  EXPECT_EQ(read_back(out), expected);
  std::fclose(out);

  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  EXPECT_EQ(doc.at("tool").as_string(), "telemetry");
  EXPECT_EQ(doc.at("knobs").at("exit_code").as_string(), "3");
  std::remove(path.c_str());
}

TEST(RunReport, CliKnobsKeyArgumentsByPosition) {
  using Knobs = std::vector<std::pair<std::string, std::string>>;
  iotls::obs::set_profile_enabled(true);
  EXPECT_EQ(iotls::obs::cli_knobs("synth", {"--instances", "9"}, 0),
            (Knobs{{"command", "synth"},
                   {"arg1", "--instances"},
                   {"arg2", "9"},
                   {"IOTLS_PROFILE", "1"},
                   {"exit_code", "0"}}));
  iotls::obs::set_profile_enabled(false);
  // A tool without subcommands passes an empty command and gets no key.
  EXPECT_EQ(iotls::obs::cli_knobs("", {"dir"}, 2),
            (Knobs{{"arg1", "dir"}, {"IOTLS_PROFILE", "0"},
                   {"exit_code", "2"}}));
}

TEST(RunReport, BuildInfoLabelNamesEveryField) {
  const std::string label = iotls::obs::build_info_label();
  EXPECT_NE(label.find("version="), std::string::npos);
  EXPECT_NE(label.find("compiler="), std::string::npos);
  EXPECT_NE(label.find("build="), std::string::npos);
  EXPECT_NE(label.find("san="), std::string::npos);
}

}  // namespace
