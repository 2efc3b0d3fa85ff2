// Columnar query scans over the capture store (DESIGN.md §12).
//
// `run_query` is the pushdown scan path: per shard it reads only the frame
// headers and the footer (block payloads are seeked over), skips every
// block whose BlockStats verdict is a definite No, and decodes surviving
// blocks through ProjectedBlockCursor — materializing only the list
// columns the filter and projection touch. The block walk itself is
// store::scan_shard_rows, the same one the analysis fold reads through.
// A group-by aggregates inside each shard scan, keyed on decoded values,
// and renders each distinct key once per shard. Shards fan out over the
// thread pool and merge in sorted-path order, so results are
// byte-identical at every thread count.
//
// `run_query_naive` is the oracle: a sequential ShardReader walk that
// decodes everything, filters decoded groups, renders every matched row
// and aggregates the rendered rows. The differential query suite asserts
// the two produce identical bytes for arbitrary queries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iotls::query {

struct QueryOptions {
  /// Filter expression (expr.hpp grammar); empty matches every row.
  std::string filter;
  /// Output columns; empty = default_columns().
  std::vector<std::string> columns;
  /// Aggregate mode: group matched rows by these columns; output is the
  /// keys plus "rows" and "connections" (sum of count), sorted by key.
  /// Overrides `columns`.
  std::vector<std::string> group_by;
  /// Worker threads for the shard fan-out (0 = hardware concurrency).
  std::size_t threads = 0;
};

struct ScanStats {
  std::uint64_t shards = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_scanned = 0;  // blocks not skipped by pushdown
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_matched = 0;
  std::uint64_t connections_matched = 0;  // sum of matched rows' counts
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  ScanStats stats;
};

/// device, dest, month, count, version, cipher, complete
std::vector<std::string> default_columns();

/// Execute a query against the store at `dir`. Throws common::ParseError
/// for a malformed filter/projection and typed StoreErrors for a defective
/// store.
QueryResult run_query(const std::string& dir, const QueryOptions& options);

/// Decode-everything oracle (sequential; ignores threads). Keep
/// independent of run_query — the differential suite diffs the two.
QueryResult run_query_naive(const std::string& dir,
                            const QueryOptions& options);

/// Deterministic human-readable plan. Identical for every `threads` value
/// (the knob is intentionally excluded) — the plan-determinism check
/// depends on this.
std::string explain_query(const std::string& dir, const QueryOptions& options);

/// Tab-separated rendering: header line, then one line per row.
std::string render_tsv(const QueryResult& result);

/// Column-aligned table with a trailing scan-stats summary line.
std::string render_table(const QueryResult& result);

}  // namespace iotls::query
