// iotls-query — columnar queries over a capture store (DESIGN.md §12).
//
// Usage:
//   iotls-query <store-dir> [--filter EXPR] [--columns a,b,c]
//               [--group-by a,b] [--format tsv|table] [--threads N]
//               [--explain] [--oracle]
//
// Examples (one command each):
//   iotls-query store/ --group-by month,version --format table
//       --filter 'vendor == "Amazon" and complete == true'
//   iotls-query store/ --filter 'adv_suite contains TLS_RSA_WITH_RC4_128_SHA'
//
// Exit codes: 0 success, 1 store/filter error (typed class name printed),
// 2 usage error. `--oracle` runs the naive decode-everything path instead
// of the pushdown scan — the two must print identical rows (the
// differential suite enforces it; the flag makes ad-hoc diffing easy).
// Output goes through iostream — the raw-io lint rule covers this file.
#include <charconv>
#include <iostream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/env.hpp"
#include "common/strings.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "query/scan.hpp"
#include "store/format.hpp"

namespace {

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "iotls-query: " << error << "\n";
  std::cerr
      << "usage: iotls-query <store-dir> [--filter EXPR] [--columns a,b,c]\n"
         "                   [--group-by a,b] [--format tsv|table]\n"
         "                   [--threads N] [--explain] [--oracle]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string format = "tsv";
  bool explain = false;
  bool oracle = false;
  iotls::query::QueryOptions options;
  iotls::obs::set_profile_enabled(
      iotls::common::strict_env_long("IOTLS_PROFILE", 0) != 0);

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 == args.size()) {
        std::cerr << "iotls-query: " << arg << " needs a value\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--filter") {
      options.filter = value();
    } else if (arg == "--columns") {
      options.columns = iotls::common::split(value(), ',');
    } else if (arg == "--group-by") {
      options.group_by = iotls::common::split(value(), ',');
    } else if (arg == "--format") {
      format = value();
      if (format != "tsv" && format != "table") {
        return usage("--format must be tsv or table");
      }
    } else if (arg == "--threads") {
      const std::string& v = value();
      unsigned long parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(v.data(), v.data() + v.size(), parsed);
      if (ec != std::errc{} || ptr != v.data() + v.size()) {
        return usage("--threads: not a number: " + v);
      }
      options.threads = parsed;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--oracle") {
      oracle = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage("unknown flag: " + arg);
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage("more than one store dir: " + arg);
    }
  }
  if (dir.empty()) return usage("missing store dir");

  int exit_code = 1;
  try {
    if (explain) {
      std::cout << iotls::query::explain_query(dir, options);
    } else {
      const iotls::query::QueryResult result =
          oracle ? iotls::query::run_query_naive(dir, options)
                 : iotls::query::run_query(dir, options);
      std::cout << (format == "table" ? iotls::query::render_table(result)
                                      : iotls::query::render_tsv(result));
    }
    exit_code = 0;
  } catch (const iotls::common::ParseError& e) {
    std::cerr << "iotls-query: ParseError: " << e.what() << "\n";
  } catch (const iotls::store::StoreIoError& e) {
    std::cerr << "iotls-query: StoreIoError: " << e.what() << "\n";
  } catch (const iotls::store::StoreFormatError& e) {
    std::cerr << "iotls-query: StoreFormatError: " << e.what() << "\n";
  } catch (const iotls::store::StoreCorruptionError& e) {
    std::cerr << "iotls-query: StoreCorruptionError: " << e.what() << "\n";
  } catch (const iotls::store::StoreError& e) {
    std::cerr << "iotls-query: StoreError: " << e.what() << "\n";
  }
  // Telemetry goes to stderr: stdout carries the query rows and stays
  // pipeline-clean.
  iotls::obs::emit_run_telemetry(
      "iotls-query", iotls::obs::cli_knobs("", args, exit_code), stderr);
  return exit_code;
}
