#include "query/scan.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/pool.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "obs/profile.hpp"
#include "query/expr.hpp"
#include "store/reader.hpp"
#include "tls/ciphersuite.hpp"

namespace iotls::query {

namespace {

// ---------------------------------------------------------------------------
// Cell rendering — one function per source type, shared token helpers
// ---------------------------------------------------------------------------

std::string join_ids(const std::vector<std::uint16_t>& ids) {
  if (ids.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (const auto id : ids) parts.push_back(std::to_string(id));
  return common::join(parts, "+");
}

std::string join_versions(const std::vector<tls::ProtocolVersion>& versions) {
  if (versions.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(versions.size());
  for (const auto v : versions) {
    parts.push_back(version_token(static_cast<std::uint64_t>(v)));
  }
  return common::join(parts, "+");
}

std::string bool_cell(bool value) { return value ? "true" : "false"; }

std::string alert_cell(net::HandshakeRecord::AlertDirection d) {
  switch (d) {
    case net::HandshakeRecord::AlertDirection::None: return "none";
    case net::HandshakeRecord::AlertDirection::ClientToServer:
      return "client";
    case net::HandshakeRecord::AlertDirection::ServerToClient:
      return "server";
  }
  return "none";
}

std::string row_cell(Column c, const store::ProjectedRow& row,
                     const store::StringDictionary& dict) {
  switch (c) {
    case Column::Device: return dict.at(row.device_id);
    case Column::Vendor: return vendor_of(dict.at(row.device_id));
    case Column::Dest: return dict.at(row.dest_id);
    case Column::Month: return row.month.str();
    case Column::Count: return std::to_string(row.count);
    case Column::Version:
      return row.established_version.has_value()
                 ? version_token(
                       static_cast<std::uint64_t>(*row.established_version))
                 : "none";
    case Column::Cipher:
      return row.established_suite.has_value()
                 ? tls::suite_name(*row.established_suite)
                 : "none";
    case Column::Complete: return bool_cell(row.handshake_complete);
    case Column::AppData: return bool_cell(row.application_data_seen);
    case Column::Sni: return bool_cell(row.sent_sni);
    case Column::Staple: return bool_cell(row.requested_ocsp_staple);
    case Column::Alert: return alert_cell(row.alert_direction);
    case Column::AdvVersion: return join_versions(row.advertised_versions);
    case Column::AdvSuite: return join_ids(row.advertised_suites);
    case Column::Extension: return join_ids(row.extension_types);
    case Column::Group: return join_ids(row.advertised_groups);
    case Column::Sigalg: return join_ids(row.advertised_sigalgs);
  }
  return "";
}

std::string group_cell(Column c, const testbed::PassiveConnectionGroup& g) {
  const net::HandshakeRecord& r = g.record;
  switch (c) {
    case Column::Device: return r.device;
    case Column::Vendor: return vendor_of(r.device);
    case Column::Dest: return r.destination;
    case Column::Month: return r.month.str();
    case Column::Count: return std::to_string(g.count);
    case Column::Version:
      return r.established_version.has_value()
                 ? version_token(
                       static_cast<std::uint64_t>(*r.established_version))
                 : "none";
    case Column::Cipher:
      return r.established_suite.has_value()
                 ? tls::suite_name(*r.established_suite)
                 : "none";
    case Column::Complete: return bool_cell(r.handshake_complete);
    case Column::AppData: return bool_cell(r.application_data_seen);
    case Column::Sni: return bool_cell(r.sent_sni);
    case Column::Staple: return bool_cell(r.requested_ocsp_staple);
    case Column::Alert: return alert_cell(r.first_fatal_alert_direction);
    case Column::AdvVersion: return join_versions(r.advertised_versions);
    case Column::AdvSuite: return join_ids(r.advertised_suites);
    case Column::Extension: return join_ids(r.extension_types);
    case Column::Group: return join_ids(r.advertised_groups);
    case Column::Sigalg: return join_ids(r.advertised_sigalgs);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Compiled query
// ---------------------------------------------------------------------------

struct Compiled {
  Expr expr;
  std::vector<Column> output;         // projection (or group-by keys)
  std::vector<std::string> headers;
  bool aggregate = false;
  std::uint32_t fields = 0;           // ProjectedFields to materialize
};

std::uint32_t fields_for_column(Column c) {
  switch (c) {
    case Column::AdvVersion: return store::kFieldAdvVersions;
    case Column::AdvSuite: return store::kFieldAdvSuites;
    case Column::Extension: return store::kFieldExtensions;
    case Column::Group: return store::kFieldAdvGroups;
    case Column::Sigalg: return store::kFieldAdvSigalgs;
    default: return 0;
  }
}

Compiled compile(const QueryOptions& options) {
  Compiled c;
  c.expr = parse_expr(options.filter);
  c.aggregate = !options.group_by.empty();
  const std::vector<std::string>& names =
      c.aggregate ? options.group_by
                  : (options.columns.empty() ? default_columns()
                                             : options.columns);
  for (const std::string& name : names) {
    const Column column = column_by_name(name);
    c.output.push_back(column);
    c.headers.push_back(column_name(column));
  }
  c.fields = fields_needed(c.expr);
  for (const Column column : c.output) c.fields |= fields_for_column(column);
  return c;
}

// ---------------------------------------------------------------------------
// Per-shard scan
// ---------------------------------------------------------------------------

struct ShardScan {
  std::vector<std::vector<std::string>> rows;
  ScanStats stats;
};

ShardScan scan_shard(const std::string& path, const Compiled& query) {
  const obs::ProfileZone zone("query/scan_shard");
  ShardScan out;
  out.stats.shards = 1;
  std::vector<std::string> cells(query.output.size());
  out.stats.blocks_total = store::scan_shard_rows(
      path, query.fields,
      [&](const store::BlockStats& stats,
          const store::StringDictionary& dict) {
        // Summaries prove no row of a No block can match.
        if (eval_stats(query.expr, stats, dict.entries()) == Tri::No) {
          return false;
        }
        ++out.stats.blocks_scanned;
        return true;
      },
      [&](const store::ProjectedRow& row,
          const store::StringDictionary& dict) {
        ++out.stats.rows_scanned;
        if (!eval_row(query.expr, row, dict)) return;
        ++out.stats.rows_matched;
        out.stats.connections_matched += row.count;
        for (std::size_t col = 0; col < query.output.size(); ++col) {
          cells[col] = row_cell(query.output[col], row, dict);
        }
        out.rows.push_back(cells);
      });
  return out;
}

// ---------------------------------------------------------------------------
// Aggregation (shared by scan and oracle so only the row source differs)
// ---------------------------------------------------------------------------

void aggregate_rows(QueryResult* result) {
  const obs::ProfileZone zone("query/aggregate_rows");
  // Key rows carry their connection count as a trailing hidden cell.
  std::map<std::vector<std::string>, std::pair<std::uint64_t, std::uint64_t>>
      groups;
  for (auto& row : result->rows) {
    const std::uint64_t count = std::stoull(row.back());
    row.pop_back();
    auto& slot = groups[row];
    slot.first += 1;
    slot.second += count;
  }
  result->rows.clear();
  for (auto& [key, totals] : groups) {
    std::vector<std::string> row = key;
    row.push_back(std::to_string(totals.first));
    row.push_back(std::to_string(totals.second));
    result->rows.push_back(std::move(row));
  }
  result->columns.push_back("rows");
  result->columns.push_back("connections");
}

}  // namespace

std::vector<std::string> default_columns() {
  return {"device", "dest", "month", "count", "version", "cipher", "complete"};
}

QueryResult run_query(const std::string& dir, const QueryOptions& options) {
  const obs::ProfileZone zone("query/run_query");
  Compiled query = compile(options);
  if (query.aggregate) {
    query.output.push_back(Column::Count);  // hidden aggregation input
  }
  const std::vector<std::string> paths = store::list_shards(dir);
  const auto scans = common::parallel_map(
      options.threads, paths, [&](const std::string& path) {
        return scan_shard(path, query);
      });

  QueryResult result;
  result.columns = query.headers;
  for (const ShardScan& scan : scans) {
    result.stats.shards += scan.stats.shards;
    result.stats.blocks_total += scan.stats.blocks_total;
    result.stats.blocks_scanned += scan.stats.blocks_scanned;
    result.stats.rows_scanned += scan.stats.rows_scanned;
    result.stats.rows_matched += scan.stats.rows_matched;
    result.stats.connections_matched += scan.stats.connections_matched;
    for (const auto& row : scan.rows) result.rows.push_back(row);
  }
  if (query.aggregate) aggregate_rows(&result);
  return result;
}

QueryResult run_query_naive(const std::string& dir,
                            const QueryOptions& options) {
  Compiled query = compile(options);
  if (query.aggregate) query.output.push_back(Column::Count);

  QueryResult result;
  result.columns = query.headers;
  std::vector<testbed::PassiveConnectionGroup> block;
  for (const std::string& path : store::list_shards(dir)) {
    store::ShardReader reader(path);
    ++result.stats.shards;
    while (reader.next(&block)) {
      ++result.stats.blocks_total;
      ++result.stats.blocks_scanned;
      for (const testbed::PassiveConnectionGroup& group : block) {
        ++result.stats.rows_scanned;
        if (!eval_group(query.expr, group)) continue;
        ++result.stats.rows_matched;
        result.stats.connections_matched += group.count;
        std::vector<std::string> cells(query.output.size());
        for (std::size_t col = 0; col < query.output.size(); ++col) {
          cells[col] = group_cell(query.output[col], group);
        }
        result.rows.push_back(std::move(cells));
      }
    }
  }
  if (query.aggregate) aggregate_rows(&result);
  return result;
}

std::string explain_query(const std::string& dir,
                          const QueryOptions& options) {
  const Compiled query = compile(options);
  const std::vector<std::string> paths = store::list_shards(dir);
  std::uint64_t blocks = 0;
  for (const std::string& path : paths) {
    blocks += store::read_shard_index(path).blocks.size();
  }
  std::string plan = "plan: columnar scan\n";
  plan += "  filter: " + to_string(query.expr) + "\n";
  plan += "  output: " + common::join(query.headers, ", ") +
          (query.aggregate ? " (group by; + rows, connections)" : "") + "\n";
  std::vector<std::string> lists;
  if ((query.fields & store::kFieldAdvVersions) != 0) {
    lists.push_back("adv_version");
  }
  if ((query.fields & store::kFieldAdvSuites) != 0) {
    lists.push_back("adv_suite");
  }
  if ((query.fields & store::kFieldExtensions) != 0) {
    lists.push_back("extension");
  }
  if ((query.fields & store::kFieldAdvGroups) != 0) lists.push_back("group");
  if ((query.fields & store::kFieldAdvSigalgs) != 0) {
    lists.push_back("sigalg");
  }
  plan += "  list columns decoded: " +
          (lists.empty() ? std::string("none") : common::join(lists, ", ")) +
          "\n";
  plan += "  shards: " + std::to_string(paths.size()) +
          ", blocks: " + std::to_string(blocks) + "\n";
  return plan;
}

std::string render_tsv(const QueryResult& result) {
  std::string out = common::join(result.columns, "\t") + "\n";
  for (const auto& row : result.rows) {
    out += common::join(row, "\t") + "\n";
  }
  return out;
}

std::string render_table(const QueryResult& result) {
  common::TextTable table(result.columns);
  for (const auto& row : result.rows) table.add_row(row);
  std::string out = table.render();
  // The line starts with a string, not a literal: "\n" + std::string&&
  // trips a false -Wrestrict in g++ 12.
  const auto& stats = result.stats;
  out += '\n';
  out += std::to_string(stats.rows_matched) + " of " +
         std::to_string(stats.rows_scanned) + " rows matched (" +
         std::to_string(stats.connections_matched) +
         " connections); scanned " + std::to_string(stats.blocks_scanned) +
         "/" + std::to_string(stats.blocks_total) + " blocks in " +
         std::to_string(stats.shards) + " shards\n";
  return out;
}

}  // namespace iotls::query
