#include "query/query_evolution.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace cods {

const char* BaselineKindToString(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kRowStore:
      return "C (row store)";
    case BaselineKind::kRowStoreIndexed:
      return "C+I (row store, indexed)";
    case BaselineKind::kRowStoreLite:
      return "S (row store, lite)";
    case BaselineKind::kColumnQueryLevel:
      return "M (column store, query level)";
  }
  return "?";
}

Result<RowDecomposeResult> RowStoreDecompose(const RowTable& r,
                                             const DecomposeSpec& spec,
                                             BaselineKind kind,
                                             const std::string& s_name,
                                             const std::string& t_name) {
  if (kind == BaselineKind::kColumnQueryLevel) {
    return Status::InvalidArgument(
        "RowStoreDecompose requires a row-store baseline kind");
  }
  RowDecomposeResult out;
  Stopwatch watch;

  // INSERT INTO S SELECT <s-cols> FROM R. The unchanged table keeps
  // R's multiplicity, so no DISTINCT.
  CODS_ASSIGN_OR_RETURN(
      out.s, ProjectRows(r, spec.s_columns, spec.s_key, s_name));
  out.timing.load_s += watch.ElapsedSeconds();

  // INSERT INTO T SELECT DISTINCT <t-cols> FROM R.
  watch.Reset();
  if (kind == BaselineKind::kRowStoreLite) {
    CODS_ASSIGN_OR_RETURN(out.t, ProjectRowsDistinctSort(
                                     r, spec.t_columns, spec.t_key, t_name));
  } else {
    CODS_ASSIGN_OR_RETURN(out.t, ProjectRowsDistinctHash(
                                     r, spec.t_columns, spec.t_key, t_name));
  }
  out.timing.query_s += watch.ElapsedSeconds();

  if (kind == BaselineKind::kRowStoreIndexed) {
    // Indexes on the new tables must be rebuilt from scratch (§1).
    watch.Reset();
    if (!spec.s_key.empty()) {
      CODS_ASSIGN_OR_RETURN(std::vector<size_t> s_key_idx,
                            out.s->schema().KeyIndices());
      BTreeIndex s_index = BTreeIndex::Build(*out.s, s_key_idx);
      CODS_CHECK(s_index.size() == out.s->rows());
    }
    if (!spec.t_key.empty()) {
      CODS_ASSIGN_OR_RETURN(std::vector<size_t> t_key_idx,
                            out.t->schema().KeyIndices());
      BTreeIndex t_index = BTreeIndex::Build(*out.t, t_key_idx);
      CODS_CHECK(t_index.size() == out.t->rows());
    }
    out.timing.index_s += watch.ElapsedSeconds();
  }
  return out;
}

Result<RowMergeResult> RowStoreMerge(const RowTable& s, const RowTable& t,
                                     const std::vector<std::string>& join_columns,
                                     const std::vector<std::string>& out_key,
                                     BaselineKind kind,
                                     const std::string& out_name) {
  if (kind == BaselineKind::kColumnQueryLevel) {
    return Status::InvalidArgument(
        "RowStoreMerge requires a row-store baseline kind");
  }
  RowMergeResult out;
  Stopwatch watch;
  if (kind == BaselineKind::kRowStoreLite) {
    CODS_ASSIGN_OR_RETURN(
        out.r,
        IndexNestedLoopJoinRows(s, t, join_columns, out_key, out_name));
  } else {
    CODS_ASSIGN_OR_RETURN(
        out.r, HashJoinRows(s, t, join_columns, out_key, out_name));
  }
  out.timing.query_s += watch.ElapsedSeconds();

  if (kind == BaselineKind::kRowStoreIndexed && !out_key.empty()) {
    watch.Reset();
    CODS_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                          out.r->schema().KeyIndices());
    BTreeIndex index = BTreeIndex::Build(*out.r, key_idx);
    CODS_CHECK(index.size() == out.r->rows());
    out.timing.index_s += watch.ElapsedSeconds();
  }
  return out;
}

Result<ColumnDecomposeResult> ColumnQueryLevelDecompose(
    const Table& r, const DecomposeSpec& spec, const std::string& s_name,
    const std::string& t_name) {
  ColumnDecomposeResult out;
  Stopwatch watch;

  // Decompress: materialize the full input as tuples.
  std::vector<Row> tuples = ScanToRows(r);
  out.timing.scan_s += watch.ElapsedSeconds();

  // Query: project (S) and project+distinct (T) on tuple vectors.
  watch.Reset();
  CODS_ASSIGN_OR_RETURN(std::vector<size_t> s_idx, [&]() -> Result<std::vector<size_t>> {
    std::vector<size_t> idx;
    for (const std::string& n : spec.s_columns) {
      CODS_ASSIGN_OR_RETURN(size_t i, r.schema().ColumnIndex(n));
      idx.push_back(i);
    }
    return idx;
  }());
  CODS_ASSIGN_OR_RETURN(std::vector<size_t> t_idx, [&]() -> Result<std::vector<size_t>> {
    std::vector<size_t> idx;
    for (const std::string& n : spec.t_columns) {
      CODS_ASSIGN_OR_RETURN(size_t i, r.schema().ColumnIndex(n));
      idx.push_back(i);
    }
    return idx;
  }());
  std::vector<Row> s_rows = ProjectRowVec(tuples, s_idx);
  std::vector<Row> t_rows = DistinctRowVec(ProjectRowVec(tuples, t_idx));
  out.timing.query_s += watch.ElapsedSeconds();

  // Re-compress: dictionary + WAH encode both outputs.
  watch.Reset();
  CODS_ASSIGN_OR_RETURN(Schema s_schema,
                        SchemaSubset(r.schema(), spec.s_columns, spec.s_key));
  CODS_ASSIGN_OR_RETURN(Schema t_schema,
                        SchemaSubset(r.schema(), spec.t_columns, spec.t_key));
  CODS_ASSIGN_OR_RETURN(out.s, RowsToColumnTable(s_name, s_schema, s_rows));
  CODS_ASSIGN_OR_RETURN(out.t, RowsToColumnTable(t_name, t_schema, t_rows));
  out.timing.compress_s += watch.ElapsedSeconds();
  return out;
}

Result<ColumnMergeResult> ColumnQueryLevelMerge(
    const Table& s, const Table& t,
    const std::vector<std::string>& join_columns,
    const std::vector<std::string>& out_key, const std::string& out_name) {
  ColumnMergeResult out;
  Stopwatch watch;

  std::vector<Row> s_rows = ScanToRows(s);
  std::vector<Row> t_rows = ScanToRows(t);
  out.timing.scan_s += watch.ElapsedSeconds();

  watch.Reset();
  std::vector<size_t> s_join, t_join;
  for (const std::string& n : join_columns) {
    CODS_ASSIGN_OR_RETURN(size_t i, s.schema().ColumnIndex(n));
    s_join.push_back(i);
    CODS_ASSIGN_OR_RETURN(size_t j, t.schema().ColumnIndex(n));
    t_join.push_back(j);
  }
  std::vector<Row> joined = HashJoinRowVec(s_rows, t_rows, s_join, t_join);
  out.timing.query_s += watch.ElapsedSeconds();

  watch.Reset();
  std::vector<ColumnSpec> specs = s.schema().columns();
  for (size_t i = 0; i < t.schema().num_columns(); ++i) {
    if (std::find(t_join.begin(), t_join.end(), i) == t_join.end()) {
      specs.push_back(Unsorted(t.schema().column(i)));
    }
  }
  CODS_ASSIGN_OR_RETURN(Schema out_schema,
                        Schema::Make(std::move(specs), out_key));
  CODS_ASSIGN_OR_RETURN(out.r,
                        RowsToColumnTable(out_name, out_schema, joined));
  out.timing.compress_s += watch.ElapsedSeconds();
  return out;
}

}  // namespace cods
