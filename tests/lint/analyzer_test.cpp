// iotls-lint v2 analyzer suite: the scoped parser, the CFG's scope-exit
// edges, the dataflow solver, the secret-taint and unchecked-result rules
// against the fixture corpus, allow-site usage tracking, and the
// JSON/stale-allows CLI surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cfg.hpp"
#include "dataflow.hpp"
#include "lint.hpp"
#include "parse.hpp"

namespace {

using iotls::lint::BitSet;
using iotls::lint::build_cfg;
using iotls::lint::Cfg;
using iotls::lint::CfgNode;
using iotls::lint::Finding;
using iotls::lint::FlowProblem;
using iotls::lint::Function;
using iotls::lint::LintOptions;
using iotls::lint::ParsedFile;
using iotls::lint::RuleConfig;
using iotls::lint::SourceFile;

std::filesystem::path fixtures_root() { return IOTLS_LINT_FIXTURES; }

RuleConfig fixture_config() {
  RuleConfig config;
  config.alert_enum_file.clear();
  config.required_alert_markers.clear();
  return config;
}

SourceFile source_of(const std::string& path, const std::string& text) {
  SourceFile f;
  f.path = path;
  f.lex = iotls::lint::tokenize(text);
  return f;
}

ParsedFile parse_text(const std::string& text) {
  return iotls::lint::parse_file(source_of("snippet.cpp", text));
}

std::vector<Finding> run_fixtures(const std::vector<std::string>& rel_files,
                                  const RuleConfig& config) {
  LintOptions options;
  options.root = fixtures_root();
  options.rules = config;
  std::vector<std::filesystem::path> files;
  for (const auto& rel : rel_files) files.push_back(fixtures_root() / rel);
  return iotls::lint::lint_files(options, files);
}

std::set<int> lines_for_rule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::set<int> lines;
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, rule) << iotls::lint::format_finding(f);
    lines.insert(f.line);
  }
  return lines;
}

const Function* find_function(const ParsedFile& parsed,
                              const std::string& name) {
  for (const auto& fn : parsed.functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(LintParser, FindsDefinitionsPrototypesAndReturnTypes) {
  const auto parsed = parse_text(
      "namespace x {\n"
      "std::optional<int> take_record();\n"
      "[[nodiscard]] bool checked();\n"
      "StoreIoError Writer::flush_block(int n) { return {n}; }\n"
      "}\n");
  ASSERT_EQ(parsed.functions.size(), 1u);
  EXPECT_EQ(parsed.functions[0].name, "flush_block");
  EXPECT_EQ(parsed.functions[0].qualified, "Writer::flush_block");
  EXPECT_EQ(parsed.functions[0].return_type, "StoreIoError");
  ASSERT_EQ(parsed.declarations.size(), 3u);
  EXPECT_EQ(parsed.declarations[0].name, "take_record");
  EXPECT_EQ(parsed.declarations[0].return_type, "std::optional<int>");
  EXPECT_FALSE(parsed.declarations[0].nodiscard);
  EXPECT_EQ(parsed.declarations[1].name, "checked");
  EXPECT_TRUE(parsed.declarations[1].nodiscard);
}

TEST(LintParser, ExtractsLambdas) {
  const auto parsed = parse_text(
      "int outer() {\n"
      "  auto cb = [&](int v) { return next(v); };\n"
      "  int plain = 3;\n"
      "  return run(cb, plain);\n"
      "}\n");
  const Function* outer = find_function(parsed, "outer");
  const Function* lambda = find_function(parsed, "<lambda>");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(lambda, nullptr);
  EXPECT_FALSE(outer->is_lambda);
  EXPECT_TRUE(lambda->is_lambda);
}

TEST(LintParser, RecordsDeclNames) {
  const auto parsed = parse_text(
      "void f() {\n"
      "  std::lock_guard<std::mutex> guard(m);\n"
      "  for (int i = 0; i < 3; ++i) { use(i); }\n"
      "}\n");
  const Function* f = find_function(parsed, "f");
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(f->body.children.empty());
  EXPECT_EQ(f->body.children[0].decl_names,
            std::vector<std::string>{"guard"});
  EXPECT_EQ(f->body.children[1].decl_names, std::vector<std::string>{"i"});
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

TEST(LintCfg, ScopeExitNamesDyingLocalsOnFallAndJump) {
  const auto parsed = parse_text(
      "void f(bool b) {\n"
      "  {\n"
      "    Guard g(m);\n"
      "    if (b) return;\n"
      "  }\n"
      "  after();\n"
      "}\n");
  const Function* f = find_function(parsed, "f");
  ASSERT_NE(f, nullptr);
  const Cfg cfg = build_cfg(*f);
  int dying_g = 0;
  for (const auto& node : cfg.nodes) {
    if (node.kind != CfgNode::Kind::ScopeExit) continue;
    for (const auto& name : node.dying) {
      if (name == "g") ++dying_g;
    }
  }
  // Once on the fall-through path, once on the early-return path.
  EXPECT_GE(dying_g, 2);
}

// ---------------------------------------------------------------------------
// Dataflow
// ---------------------------------------------------------------------------

TEST(LintDataflow, BitSetOps) {
  BitSet a(130), b(130);
  a.set(0);
  a.set(129);
  EXPECT_TRUE(a.test(129));
  EXPECT_FALSE(a.test(64));
  b.set(64);
  EXPECT_TRUE(a.merge(b));
  EXPECT_FALSE(a.merge(b));  // second merge changes nothing
  BitSet gen(130), kill(130);
  kill.set(0);
  gen.set(1);
  a.apply(gen, kill);
  EXPECT_FALSE(a.test(0));
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(64));
  EXPECT_TRUE(a.test(129));
}

TEST(LintDataflow, FactsMergeAcrossBranchesAndDieAtScopeExit) {
  const auto parsed = parse_text(
      "void f(bool b) {\n"
      "  if (b) {\n"
      "    Guard g(m);\n"
      "    touch();\n"
      "  }\n"
      "  after();\n"
      "}\n");
  const Function* f = find_function(parsed, "f");
  ASSERT_NE(f, nullptr);
  const Cfg cfg = build_cfg(*f);
  // One fact: "g is alive", generated at its Decl, killed at ScopeExit.
  FlowProblem problem;
  problem.nfacts = 1;
  problem.gen.assign(cfg.nodes.size(), BitSet(1));
  problem.kill.assign(cfg.nodes.size(), BitSet(1));
  int touch_node = -1, after_node = -1;
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    const auto& node = cfg.nodes[n];
    if (node.kind == CfgNode::Kind::Stmt && node.stmt != nullptr &&
        !node.stmt->decl_names.empty() &&
        node.stmt->decl_names[0] == "g") {
      problem.gen[n].set(0);
    }
    if (node.kind == CfgNode::Kind::ScopeExit) {
      for (const auto& name : node.dying) {
        if (name == "g") problem.kill[n].set(0);
      }
    }
    if (node.kind == CfgNode::Kind::Stmt && node.stmt != nullptr) {
      if (node.line == 4) touch_node = static_cast<int>(n);
      if (node.line == 6) after_node = static_cast<int>(n);
    }
  }
  ASSERT_GE(touch_node, 0);
  ASSERT_GE(after_node, 0);
  const auto flow = iotls::lint::solve_forward(cfg, problem);
  EXPECT_TRUE(flow.in[touch_node].test(0));   // inside the braces: alive
  EXPECT_FALSE(flow.in[after_node].test(0));  // after the braces: dead
}

// ---------------------------------------------------------------------------
// Rule: secret-taint (dataflow powers beyond the ported v1 checks)
// ---------------------------------------------------------------------------

TEST(LintRules, SecretTaintFlowsThroughLocalsAndReturns) {
  const auto findings = run_fixtures({"bad_taint.cpp"}, fixture_config());
  const std::set<int> expected = {21, 27, 35};
  EXPECT_EQ(lines_for_rule(findings, "secret-taint"), expected);
}

TEST(LintRules, SecretTaintHonorsSanitizersRebindsAndAllow) {
  EXPECT_TRUE(run_fixtures({"good_taint.cpp"}, fixture_config()).empty());
}

// ---------------------------------------------------------------------------
// Rule: unchecked-result
// ---------------------------------------------------------------------------

TEST(LintRules, UncheckedResultFiresOnDiscardedStatusCalls) {
  const auto findings = run_fixtures({"bad_unchecked.cpp"}, fixture_config());
  const std::set<int> expected = {17, 18, 19};
  EXPECT_EQ(lines_for_rule(findings, "unchecked-result"), expected);
}

TEST(LintRules, UncheckedResultHonorsBindingsVoidCastsAndAllow) {
  EXPECT_TRUE(run_fixtures({"good_unchecked.cpp"}, fixture_config()).empty());
}

// ---------------------------------------------------------------------------
// Allow-site tracking (--stale-allows machinery)
// ---------------------------------------------------------------------------

TEST(LintAllows, UsageBitsDistinguishLiveAndStaleSites) {
  LintOptions options;
  options.root = fixtures_root();
  options.rules = fixture_config();
  const auto result = iotls::lint::lint_files_full(
      options, {fixtures_root() / "stale_allow.cpp"});
  EXPECT_TRUE(result.findings.empty());  // the one real finding is waived
  ASSERT_EQ(result.allows.size(), 3u);
  const auto stale = iotls::lint::stale_allow_findings(result.allows);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0].line, 13);
  EXPECT_EQ(stale[0].rule, "stale-allow");
  EXPECT_EQ(stale[0].severity, "warning");
  EXPECT_NE(stale[0].message.find("allow(banned-api)"), std::string::npos);
  EXPECT_EQ(stale[1].line, 19);
  EXPECT_NE(stale[1].message.find("does not exist"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

TEST(LintJson, EscapesAndSerializesFindings) {
  Finding f;
  f.file = "src/a.cpp";
  f.line = 7;
  f.rule = "determinism";
  f.message = "say \"no\" to\nnewlines\tand tabs";
  const std::string json = iotls::lint::findings_to_json({f});
  EXPECT_EQ(json,
            "[\n"
            "  {\"file\": \"src/a.cpp\", \"line\": 7, "
            "\"rule\": \"determinism\", \"severity\": \"error\", "
            "\"message\": \"say \\\"no\\\" to\\nnewlines\\tand tabs\"}\n"
            "]\n");
  EXPECT_EQ(iotls::lint::findings_to_json({}), "[]\n");
}

// ---------------------------------------------------------------------------
// CLI: --format=json and --stale-allows
// ---------------------------------------------------------------------------

std::string run_cli_capture(const std::string& args, int* exit_code) {
  const std::string out_path =
      ::testing::TempDir() + "/iotls_lint_cli_out.txt";
  const std::string cmd = std::string(IOTLS_LINT_BIN) + " " + args + " > " +
                          out_path + " 2> /dev/null";
  const int status = std::system(cmd.c_str());
  *exit_code = WEXITSTATUS(status);
  std::ifstream in(out_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(LintCli, JsonFormatKeepsExitCodeContract) {
  const std::string root = fixtures_root().string();
  int code = -1;
  const std::string out = run_cli_capture(
      "--format=json --root " + root + " " + root + "/bad_banned_api.cpp",
      &code);
  EXPECT_EQ(code, 1);  // findings still exit 1 under --format=json
  EXPECT_EQ(out.rfind("[\n", 0), 0u) << out;
  EXPECT_NE(out.find("\"rule\": \"banned-api\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"severity\": \"error\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"file\": \"bad_banned_api.cpp\""), std::string::npos)
      << out;

  code = -1;
  const std::string clean = run_cli_capture(
      "--format=json --root " + root + " " + root + "/good_include.cpp",
      &code);
  EXPECT_EQ(code, 0);  // clean run still exits 0, as an empty array
  EXPECT_EQ(clean, "[]\n");
}

TEST(LintCli, StaleAllowsModeReportsOnlyDeadSuppressions) {
  const std::string root = fixtures_root().string();
  int code = -1;
  const std::string out = run_cli_capture(
      "--stale-allows --root " + root + " " + root + "/stale_allow.cpp",
      &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("stale_allow.cpp:13"), std::string::npos) << out;
  EXPECT_NE(out.find("stale_allow.cpp:19"), std::string::npos) << out;
  EXPECT_EQ(out.find(":7:"), std::string::npos) << out;  // used allow

  code = -1;
  run_cli_capture("--stale-allows --root " + root + " " + root +
                      "/good_unchecked.cpp",
                  &code);
  EXPECT_EQ(code, 0);  // every allow in that file suppresses something
}

TEST(LintCli, StaleAllowsTreeIsClean) {
  int code = -1;
  run_cli_capture(
      "--stale-allows --check --root " + std::string(IOTLS_LINT_REPO_ROOT),
      &code);
  EXPECT_EQ(code, 0);
}

}  // namespace
