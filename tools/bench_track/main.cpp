// iotls-bench-track — bench-trajectory regression tracker (DESIGN.md §13).
//
// Usage:
//   iotls-bench-track <results-dir> [--trajectory FILE] [--label NAME]
//                     [--max-regress PCT] [--relative-only] [--dry-run]
//
// Ingests every BENCH_*.json bench lane and iotls-run-report/1 document in
// <results-dir>, appends one JSONL entry to the trajectory file (default
// bench/trajectory.jsonl), and prints per-metric deltas against the
// previous entry. Exit codes: 0 ok, 1 regression past --max-regress (or an
// unreadable input), 2 usage error.
//
// --relative-only gates only machine-independent units (speedup ratios,
// parity bools, work counts) — the CI mode, where absolute ms vary by
// runner.
// --dry-run compares without appending.
//
// The entry label comes from --label, else GITHUB_SHA, else "local" — the
// tracker itself never reads a clock, so trajectories stay reproducible.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/json.hpp"
#include "track.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::bench_track::CompareOptions;
using iotls::bench_track::TrajectoryEntry;

int usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "iotls-bench-track: %s\n",
                                   error.c_str());
  std::fprintf(stderr,
               "usage: iotls-bench-track <results-dir> [--trajectory FILE]\n"
               "                         [--label NAME] [--max-regress PCT]\n"
               "                         [--relative-only] [--dry-run]\n");
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Collect BENCH_*.json lanes and run reports from the results directory.
/// Paths are sorted so the trajectory entry is independent of directory
/// iteration order.
bool ingest_directory(const std::string& dir, TrajectoryEntry* entry) {
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    if (e.path().extension() != ".json") continue;
    paths.push_back(e.path().string());
  }
  std::sort(paths.begin(), paths.end());

  bool ok = true;
  for (const auto& path : paths) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "iotls-bench-track: cannot read %s\n",
                   path.c_str());
      ok = false;
      continue;
    }
    try {
      const iotls::common::Json doc = iotls::common::Json::parse(text);
      if (doc.find("schema") != nullptr) {
        entry->reports.push_back(iotls::bench_track::parse_run_report(text));
      } else if (doc.find("bench") != nullptr) {
        entry->lanes.push_back(iotls::bench_track::parse_bench_json(text));
      } else {
        std::fprintf(stderr,
                     "iotls-bench-track: %s: neither a bench lane nor a "
                     "run report, skipping\n",
                     path.c_str());
      }
    } catch (const iotls::common::JsonError& e) {
      std::fprintf(stderr, "iotls-bench-track: %s: %s\n", path.c_str(),
                   e.what());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string trajectory = "bench/trajectory.jsonl";
  std::string label =
      iotls::common::env_string("GITHUB_SHA", "local");
  CompareOptions options;
  bool dry_run = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "iotls-bench-track: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--trajectory") {
      trajectory = value();
    } else if (arg == "--label") {
      label = value();
    } else if (arg == "--max-regress") {
      const std::string& v = value();
      char* end = nullptr;
      options.max_regress_pct = std::strtod(v.c_str(), &end);
      if (end != v.c_str() + v.size() || v.empty()) {
        return usage("--max-regress: not a number: " + v);
      }
    } else if (arg == "--relative-only") {
      options.relative_only = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage("unknown flag: " + arg);
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage("more than one results dir: " + arg);
    }
  }
  if (dir.empty()) return usage("missing results dir");
  if (!fs::is_directory(dir)) return usage("not a directory: " + dir);

  TrajectoryEntry entry;
  entry.label = label;
  if (!ingest_directory(dir, &entry)) return 1;
  if (entry.lanes.empty()) {
    std::fprintf(stderr, "iotls-bench-track: no BENCH_*.json lanes in %s\n",
                 dir.c_str());
    return 1;
  }

  // Baseline: the last non-empty line of the trajectory, when it exists.
  bool have_prev = false;
  TrajectoryEntry prev;
  {
    std::ifstream in(trajectory);
    std::string line, last;
    while (std::getline(in, line)) {
      if (!line.empty()) last = line;
    }
    if (!last.empty()) {
      try {
        prev = iotls::bench_track::parse_trajectory_line(last);
        have_prev = true;
      } catch (const iotls::common::JsonError& e) {
        std::fprintf(stderr, "iotls-bench-track: %s: bad last entry: %s\n",
                     trajectory.c_str(), e.what());
        return 1;
      }
    }
  }

  bool regressed = false;
  if (have_prev) {
    const auto deltas = iotls::bench_track::compare(prev, entry, options);
    std::printf("==== bench trajectory: %s -> %s (gate %.1f%%%s) ====\n",
                prev.label.c_str(), entry.label.c_str(),
                options.max_regress_pct,
                options.relative_only ? ", relative units only" : "");
    std::fputs(iotls::bench_track::render_deltas(deltas).c_str(), stdout);
    for (const auto& d : deltas) regressed = regressed || d.regression;
  } else {
    std::printf("==== bench trajectory: first entry (%s) ====\n",
                entry.label.c_str());
  }

  if (!dry_run) {
    std::ofstream out(trajectory, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "iotls-bench-track: cannot append to %s\n",
                   trajectory.c_str());
      return 1;
    }
    out << iotls::bench_track::render_trajectory_line(entry) << "\n";
    std::printf("appended %zu lane(s), %zu report(s) to %s\n",
                entry.lanes.size(), entry.reports.size(), trajectory.c_str());
  }

  if (regressed) {
    std::fprintf(stderr,
                 "iotls-bench-track: regression past %.1f%% threshold\n",
                 options.max_regress_pct);
    return 1;
  }
  return 0;
}
