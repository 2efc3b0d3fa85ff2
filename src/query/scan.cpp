#include "query/scan.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_map>
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
// Group-by aggregation
// ---------------------------------------------------------------------------

/// Group totals keyed by rendered cells, sorted by key: the aggregate
/// output order.
using Groups =
    std::map<std::vector<std::string>, std::pair<std::uint64_t, std::uint64_t>>;

/// Emit `groups` as result rows: the key cells, then rows and connections.
void emit_groups(const Groups& groups, QueryResult* result) {
  for (const auto& [key, totals] : groups) {
    std::vector<std::string> row = key;
    row.push_back(std::to_string(totals.first));
    row.push_back(std::to_string(totals.second));
    result->rows.push_back(std::move(row));
  }
  result->columns.push_back("rows");
  result->columns.push_back("connections");
}

/// A scan-side group key: the decoded value of each key column, one word
/// per scalar (dictionary id, month index, version/suite code, bool) and
/// the length then the entries for a list column. Ids are shard-local, so
/// a key is only meaningful within one shard.
using GroupKey = std::vector<std::uint64_t>;

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& key) const {
    std::uint64_t h = key.size();
    for (const std::uint64_t word : key) {
      h = (h ^ word) * 0x9E3779B97F4A7C15u;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

template <typename T>
void append_list(const std::vector<T>& values, GroupKey* key) {
  key->push_back(values.size());
  for (const T value : values) {
    key->push_back(static_cast<std::uint64_t>(value));
  }
}

void append_key(Column c, const store::ProjectedRow& row, GroupKey* key) {
  switch (c) {
    case Column::Device:
    case Column::Vendor: key->push_back(row.device_id); return;
    case Column::Dest: key->push_back(row.dest_id); return;
    case Column::Month:
      key->push_back(static_cast<std::uint64_t>(row.month.index()));
      return;
    case Column::Count: key->push_back(row.count); return;
    case Column::Version:
      key->push_back(
          row.established_version.has_value()
              ? static_cast<std::uint64_t>(*row.established_version) + 1
              : 0);
      return;
    case Column::Cipher:
      key->push_back(row.established_suite.has_value()
                         ? std::uint64_t{*row.established_suite} + 1
                         : 0);
      return;
    case Column::Complete: key->push_back(row.handshake_complete); return;
    case Column::AppData: key->push_back(row.application_data_seen); return;
    case Column::Sni: key->push_back(row.sent_sni); return;
    case Column::Staple: key->push_back(row.requested_ocsp_staple); return;
    case Column::Alert:
      key->push_back(static_cast<std::uint64_t>(row.alert_direction));
      return;
    case Column::AdvVersion: append_list(row.advertised_versions, key); return;
    case Column::AdvSuite: append_list(row.advertised_suites, key); return;
    case Column::Extension: append_list(row.extension_types, key); return;
    case Column::Group: append_list(row.advertised_groups, key); return;
    case Column::Sigalg: append_list(row.advertised_sigalgs, key); return;
  }
}

/// One shard's partial aggregate: each distinct decoded key's rendered
/// cells (rendered once, when the key is first seen) and its totals.
struct GroupTotals {
  std::vector<std::string> cells;
  std::uint64_t rows = 0;
  std::uint64_t connections = 0;
};
using ShardGroups = std::unordered_map<GroupKey, GroupTotals, GroupKeyHash>;

// ---------------------------------------------------------------------------
// Per-shard scan
// ---------------------------------------------------------------------------

struct ShardScan {
  std::vector<std::vector<std::string>> rows;  // projection mode
  ShardGroups groups;                          // group-by mode
  ScanStats stats;
};

std::vector<std::string> render_cells(const std::vector<Column>& columns,
                                      const store::ProjectedRow& row,
                                      const store::StringDictionary& dict) {
  std::vector<std::string> cells;
  cells.reserve(columns.size());
  for (const Column c : columns) cells.push_back(row_cell(c, row, dict));
  return cells;
}

ShardScan scan_shard(const std::string& path, const Compiled& query) {
  const obs::ProfileZone zone("query/scan_shard");
  ShardScan out;
  out.stats.shards = 1;
  GroupKey key;
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
        if (!query.aggregate) {
          out.rows.push_back(render_cells(query.output, row, dict));
          return;
        }
        key.clear();
        for (const Column c : query.output) append_key(c, row, &key);
        auto it = out.groups.find(key);
        if (it == out.groups.end()) {
          it = out.groups
                   .emplace(key, GroupTotals{render_cells(query.output, row,
                                                          dict)})
                   .first;
        }
        ++it->second.rows;
        it->second.connections += row.count;
      });
  return out;
}

/// Oracle aggregation: key rows carry their connection count as a
/// trailing hidden cell.
void aggregate_rows(QueryResult* result) {
  const obs::ProfileZone zone("query/aggregate_rows");
  Groups groups;
  for (auto& row : result->rows) {
    const std::uint64_t count = std::stoull(row.back());
    row.pop_back();
    auto& slot = groups[row];
    slot.first += 1;
    slot.second += count;
  }
  result->rows.clear();
  emit_groups(groups, result);
}

}  // namespace

std::vector<std::string> default_columns() {
  return {"device", "dest", "month", "count", "version", "cipher", "complete"};
}

QueryResult run_query(const std::string& dir, const QueryOptions& options) {
  const obs::ProfileZone zone("query/run_query");
  const Compiled query = compile(options);
  const std::vector<std::string> paths = store::list_shards(dir);
  auto scans = common::parallel_map(
      options.threads, paths, [&](const std::string& path) {
        return scan_shard(path, query);
      });

  // Shards merge in sorted-path order. Rendering can be many-to-one
  // (vendor), so partial groups from different keys or shards may share
  // cells; they sum.
  const obs::ProfileZone merge_zone("query/merge");
  QueryResult result;
  result.columns = query.headers;
  Groups groups;
  for (ShardScan& scan : scans) {
    result.stats.shards += scan.stats.shards;
    result.stats.blocks_total += scan.stats.blocks_total;
    result.stats.blocks_scanned += scan.stats.blocks_scanned;
    result.stats.rows_scanned += scan.stats.rows_scanned;
    result.stats.rows_matched += scan.stats.rows_matched;
    result.stats.connections_matched += scan.stats.connections_matched;
    std::move(scan.rows.begin(), scan.rows.end(),
              std::back_inserter(result.rows));
    for (auto& entry : scan.groups) {
      auto& slot = groups[std::move(entry.second.cells)];
      slot.first += entry.second.rows;
      slot.second += entry.second.connections;
    }
  }
  if (query.aggregate) emit_groups(groups, &result);
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
