// Relational operators over the row store: scan, project, filter,
// distinct (hash- and sort-based), and hash / index-nested-loop joins.
// These implement the query half of "query-level data evolution": the
// paper's baseline executes INSERT INTO ... SELECT ... through exactly
// these operators.

#ifndef CODS_QUERY_ROW_EXECUTOR_H_
#define CODS_QUERY_ROW_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rowstore/btree_index.h"
#include "rowstore/row_table.h"
#include "storage/table.h"

namespace cods {

/// Imports a column-store table into the row store by materializing every
/// tuple (used to set up the row-oriented baselines).
Result<std::unique_ptr<RowTable>> MaterializeToRowStore(const Table& table);

/// Re-encodes a row table into a column-store table: dictionary-encode
/// each column and WAH-compress (the "re-compress" stage of Figure 2).
Result<std::shared_ptr<const Table>> RowTableToColumnTable(
    const RowTable& table, const std::string& name);

/// Returns the schema restricted to `columns` (in the given order), with
/// `key` as the declared key.
Result<Schema> SchemaSubset(const Schema& schema,
                            const std::vector<std::string>& columns,
                            const std::vector<std::string>& key);

/// SELECT columns FROM in — projection into a new row table.
Result<std::unique_ptr<RowTable>> ProjectRows(
    const RowTable& in, const std::vector<std::string>& columns,
    const std::vector<std::string>& out_key, const std::string& out_name);

/// SELECT DISTINCT columns FROM in, using a hash set (the commercial-
/// RDBMS plan shape).
Result<std::unique_ptr<RowTable>> ProjectRowsDistinctHash(
    const RowTable& in, const std::vector<std::string>& columns,
    const std::vector<std::string>& out_key, const std::string& out_name);

/// SELECT DISTINCT columns FROM in, by sorting and deduplicating
/// adjacent tuples (the SQLite plan shape).
Result<std::unique_ptr<RowTable>> ProjectRowsDistinctSort(
    const RowTable& in, const std::vector<std::string>& columns,
    const std::vector<std::string>& out_key, const std::string& out_name);

/// SELECT * FROM in WHERE pred — filter into a new row table.
Result<std::unique_ptr<RowTable>> FilterRows(
    const RowTable& in, const std::function<bool(const Row&)>& pred,
    const std::string& out_name);

/// S JOIN T on equality of `join_columns` (present in both inputs).
/// Output schema: all columns of `s`, then T's non-join columns; the
/// declared key of the output is `out_key`. Hash join (build on t).
Result<std::unique_ptr<RowTable>> HashJoinRows(
    const RowTable& s, const RowTable& t,
    const std::vector<std::string>& join_columns,
    const std::vector<std::string>& out_key, const std::string& out_name);

/// Same join executed as an index nested-loop: builds a B+ tree on t's
/// join columns, then probes per s-tuple (the SQLite plan shape).
Result<std::unique_ptr<RowTable>> IndexNestedLoopJoinRows(
    const RowTable& s, const RowTable& t,
    const std::vector<std::string>& join_columns,
    const std::vector<std::string>& out_key, const std::string& out_name);

}  // namespace cods

#endif  // CODS_QUERY_ROW_EXECUTOR_H_
