// iotls-store — capture-store maintenance CLI (DESIGN.md §11).
//
// Usage:
//   iotls-store inspect <store-dir>                 per-shard + total stats
//   iotls-store validate <store-dir> [--threads N]  full integrity check
//   iotls-store merge <out-dir> <in-dir>...         stream shards into one
//   iotls-store compact <out-dir> <in-dir>...       coalesce small shards
//       [--groups-per-shard N] [--threads N]
//   iotls-store export-tsv <store-dir> <out.tsv>    bridge to the TSV format
//
// Exit codes: 0 success, 1 store error (the typed StoreError class name is
// printed), 2 usage error. File I/O goes through store::CheckedFile — the
// raw-io lint rule applies to this file like the rest of the store.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "store/compact.hpp"
#include "store/format.hpp"
#include "store/io.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "testbed/longitudinal.hpp"

namespace {

namespace fs = std::filesystem;
using iotls::store::CheckedFile;
using iotls::store::DatasetCursor;
using iotls::store::ShardHeader;
using iotls::store::ShardReader;
using iotls::store::ShardWriter;

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "iotls-store: " << error << "\n";
  std::cerr << "usage:\n"
               "  iotls-store inspect <store-dir>\n"
               "  iotls-store validate <store-dir> [--threads N]\n"
               "  iotls-store merge <out-dir> <in-dir>...\n"
               "  iotls-store compact <out-dir> <in-dir>... "
               "[--groups-per-shard N] [--threads N]\n"
               "  iotls-store export-tsv <store-dir> <out.tsv>\n";
  return 2;
}

unsigned long long ull(std::uint64_t v) { return v; }

int cmd_inspect(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage("inspect takes exactly one store dir");
  const auto paths = iotls::store::list_shards(args[0]);
  std::printf("%-6s %-24s %-16s %10s %8s %12s\n", "shard", "file", "label",
              "groups", "blocks", "bytes");
  std::uint64_t groups = 0, blocks = 0, bytes = 0;
  for (const auto& path : paths) {
    const ShardReader reader(path);
    const ShardHeader& header = reader.header();
    const auto report = iotls::store::validate_shard(path);
    std::printf("%-6u %-24s %-16s %10llu %8llu %12llu\n", header.shard_index,
                fs::path(path).filename().string().c_str(),
                header.label.empty() ? "-" : header.label.c_str(),
                ull(report.groups), ull(report.blocks), ull(report.bytes));
    groups += report.groups;
    blocks += report.blocks;
    bytes += report.bytes;
    if (&path == &paths.front()) {
      std::printf("       seed=%llu window=%s..%s format=v%u\n",
                  ull(header.seed), header.first.str().c_str(),
                  header.last.str().c_str(),
                  static_cast<unsigned>(iotls::store::kFormatVersion));
    }
  }
  std::printf("total  %-24zu %-16s %10llu %8llu %12llu\n", paths.size(),
              "shards", ull(groups), ull(blocks), ull(bytes));
  return 0;
}

int cmd_validate(const std::vector<std::string>& args) {
  std::string dir;
  std::size_t threads = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threads") {
      if (i + 1 == args.size()) return usage("--threads needs a value");
      const std::string& v = args[++i];
      unsigned long parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(v.data(), v.data() + v.size(), parsed);
      if (ec != std::errc{} || ptr != v.data() + v.size()) {
        return usage("--threads: not a number: " + v);
      }
      threads = parsed;
    } else if (dir.empty()) {
      dir = args[i];
    } else {
      return usage("validate takes exactly one store dir");
    }
  }
  if (dir.empty()) return usage("validate takes exactly one store dir");
  const auto report = iotls::store::validate_store(dir, threads);
  std::printf("ok: %llu shards, %llu groups, %llu blocks, %llu bytes\n",
              ull(report.shards), ull(report.groups), ull(report.blocks),
              ull(report.bytes));
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage("merge needs <out-dir> and >=1 <in-dir>");
  const std::string& out_dir = args[0];
  const std::vector<std::string> inputs(args.begin() + 1, args.end());

  // Merged header: seed from the first input, window widened across all
  // input shards. Shards stream straight through — no full materialization.
  // Inputs without shards are legal (an empty store merges as no groups);
  // merging only empty inputs still writes a valid single-shard store.
  ShardHeader header;
  bool first_header = true;
  std::vector<std::string> shard_paths;
  for (const auto& dir : inputs) {
    for (const auto& path :
         iotls::store::list_shards(dir, /*allow_empty=*/true)) {
      const ShardHeader h = ShardReader(path).header();
      if (first_header) {
        header.seed = h.seed;
        header.first = h.first;
        header.last = h.last;
        first_header = false;
      } else {
        header.first = std::min(header.first, h.first);
        header.last = std::max(header.last, h.last);
      }
      shard_paths.push_back(path);
    }
  }
  header.shard_index = 0;
  header.shard_count = 1;

  fs::create_directories(out_dir);
  const std::string out_path =
      (fs::path(out_dir) / iotls::store::shard_filename(0)).string();
  if (fs::exists(out_path)) {
    throw iotls::store::StoreIoError("merge target already exists: " +
                                     out_path);
  }
  ShardWriter writer(out_path, header);
  DatasetCursor(shard_paths)
      .for_each([&](const iotls::testbed::PassiveConnectionGroup& group) {
        writer.add(group);
      });
  const auto info = writer.close();
  std::printf("merged %zu stores -> %s (%llu groups, %llu blocks, "
              "%llu bytes)\n",
              inputs.size(), out_path.c_str(), ull(info.groups),
              ull(info.blocks), ull(info.bytes));
  return 0;
}

int cmd_compact(const std::vector<std::string>& args) {
  std::string out_dir;
  std::vector<std::string> inputs;
  iotls::store::CompactOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--groups-per-shard" || args[i] == "--threads") {
      if (i + 1 == args.size()) return usage(args[i] + " needs a value");
      const std::string flag = args[i];
      const std::string& v = args[++i];
      unsigned long long parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(v.data(), v.data() + v.size(), parsed);
      if (ec != std::errc{} || ptr != v.data() + v.size()) {
        return usage(flag + ": not a number: " + v);
      }
      if (flag == "--threads") {
        options.threads = static_cast<std::size_t>(parsed);
      } else {
        options.groups_per_shard = parsed;
      }
    } else if (out_dir.empty()) {
      out_dir = args[i];
    } else {
      inputs.push_back(args[i]);
    }
  }
  if (out_dir.empty() || inputs.empty()) {
    return usage("compact needs <out-dir> and >=1 <in-dir>");
  }
  const auto report = iotls::store::compact_store(inputs, out_dir, options);
  std::printf("compacted %llu shards -> %llu (%llu groups, %llu -> %llu "
              "bytes) in %s\n",
              ull(report.input_shards), ull(report.output_shards),
              ull(report.groups), ull(report.bytes_in), ull(report.bytes_out),
              out_dir.c_str());
  return 0;
}

int cmd_export_tsv(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage("export-tsv needs <store-dir> <out.tsv>");
  CheckedFile out = CheckedFile::create(args[1]);
  out.write(iotls::testbed::dataset_tsv_header() + "\n");
  std::uint64_t groups = 0;
  DatasetCursor::open(args[0]).for_each(
      [&](const iotls::testbed::PassiveConnectionGroup& group) {
        out.write(iotls::testbed::group_to_tsv_row(group));
        ++groups;
      });
  const std::uint64_t bytes = out.bytes_written();
  out.close();
  std::printf("exported %llu groups (%llu TSV bytes) -> %s\n", ull(groups),
              ull(bytes), args[1].c_str());
  return 0;
}

int run_command(const std::string& command,
                const std::vector<std::string>& args) {
  if (command == "inspect") return cmd_inspect(args);
  if (command == "validate") return cmd_validate(args);
  if (command == "merge") return cmd_merge(args);
  if (command == "compact") return cmd_compact(args);
  if (command == "export-tsv") return cmd_export_tsv(args);
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
  } catch (const iotls::store::StoreIoError& e) {
    std::cerr << "iotls-store: StoreIoError: " << e.what() << "\n";
  } catch (const iotls::store::StoreFormatError& e) {
    std::cerr << "iotls-store: StoreFormatError: " << e.what() << "\n";
  } catch (const iotls::store::StoreCorruptionError& e) {
    std::cerr << "iotls-store: StoreCorruptionError: " << e.what() << "\n";
  } catch (const iotls::store::StoreError& e) {
    std::cerr << "iotls-store: StoreError: " << e.what() << "\n";
  }
  // Emitted after the command so the profile tree is complete.
  iotls::obs::emit_run_telemetry(
      "iotls-store", iotls::obs::cli_knobs(command, args, exit_code), stdout);
  return exit_code;
}
