#include "lint.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common/json.hpp"

namespace iotls::lint {

namespace fs = std::filesystem;

namespace {

std::string relative_slash_path(const fs::path& root, const fs::path& file) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty()) rel = file;
  return rel.generic_string();
}

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

SourceFile load_file(const fs::path& root, const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + file.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  SourceFile out;
  out.path = relative_slash_path(root, file);
  out.lex = tokenize(buf.str());
  return out;
}

std::vector<fs::path> collect_tree(const LintOptions& options) {
  std::vector<fs::path> files;
  for (const auto& sub : options.subdirs) {
    const fs::path dir = options.root / sub;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !lintable_extension(entry.path())) {
        continue;
      }
      const std::string rel = relative_slash_path(options.root, entry.path());
      const bool excluded = std::any_of(
          options.exclude_fragments.begin(), options.exclude_fragments.end(),
          [&](const std::string& frag) {
            return rel.find(frag) != std::string::npos;
          });
      if (!excluded) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Finding> lint_files(const LintOptions& options,
                                const std::vector<fs::path>& files) {
  return lint_files_full(options, files).findings;
}

std::vector<Finding> lint_tree(const LintOptions& options) {
  return lint_files(options, collect_tree(options));
}

RunResult lint_files_full(const LintOptions& options,
                          const std::vector<fs::path>& files) {
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    sources.push_back(load_file(options.root, file));
  }
  return run_rules_full(sources, options.rules);
}

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

std::string findings_to_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": " + common::json_quote(f.file) +
           ", \"line\": " + std::to_string(f.line) +
           ", \"rule\": " + common::json_quote(f.rule) +
           ", \"severity\": " + common::json_quote(f.severity) +
           ", \"message\": " + common::json_quote(f.message) + "}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::vector<Finding> stale_allow_findings(
    const std::vector<AllowSite>& allows) {
  std::vector<Finding> out;
  for (const AllowSite& a : allows) {
    if (a.used) continue;
    Finding f;
    f.file = a.file;
    f.line = a.line;
    f.rule = "stale-allow";
    f.severity = "warning";
    f.message =
        a.known_rule
            ? "allow(" + a.rule + ") suppresses nothing; delete it so a "
              "future regression cannot hide behind it"
            : "allow(" + a.rule + ") names a rule that does not exist; "
              "delete it or fix the rule name";
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.message) <
           std::tie(b.file, b.line, b.message);
  });
  return out;
}

}  // namespace iotls::lint
