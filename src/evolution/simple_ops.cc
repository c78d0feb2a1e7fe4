#include "evolution/simple_ops.h"

#include "bitmap/codec.h"
#include "bitmap/wah_filter.h"
#include "exec/exec.h"
#include "exec/parallel_build.h"
#include "storage/value_compare.h"

namespace cods {

Result<std::shared_ptr<const Table>> MakeEmptyTable(const std::string& name,
                                                    const Schema& schema) {
  std::vector<std::shared_ptr<const Column>> cols;
  for (const ColumnSpec& spec : schema.columns()) {
    cols.push_back(Column::FromVids(spec.type, Dictionary(), {}));
  }
  return Table::Make(name, schema, std::move(cols), 0);
}

Result<std::shared_ptr<const Table>> CopyTableOp(const Table& src,
                                                 const std::string& name) {
  return src.WithName(name);
}

Result<std::shared_ptr<const Table>> UnionTablesOp(
    const Table& a, const Table& b, const std::string& name,
    EvolutionObserver* observer, const ExecContext* ctx) {
  if (!a.schema().SameLayout(b.schema())) {
    return Status::InvalidArgument(
        "UNION TABLES requires identical column names and types");
  }
  ExecContext exec = ResolveContext(ctx);
  const std::string op = "UNION " + a.name() + "∪" + b.name();
  const uint64_t out_rows = a.rows() + b.rows();
  std::vector<std::shared_ptr<const Column>> cols(a.num_columns());
  ScopedStep step(observer, op, "concat",
                  "concatenating compressed bitmaps of " +
                      std::to_string(a.num_columns()) + " columns");
  // Outer grain: one task per column. The dictionary merge is serial per
  // column (GetOrInsert mutates), but the per-value prefix/concat
  // assembly nests a second ParallelFor over output vids.
  CODS_RETURN_NOT_OK(ParallelFor(
      exec, 0, a.num_columns(), 1, [&](uint64_t i) -> Status {
        const Column& ca = *a.column(i);
        const Column& cb = *b.column(i);
        // Output dictionary: a's values first, then b's new values.
        Dictionary dict = ca.dict();
        std::vector<Vid> b_to_out(cb.distinct_count());
        // Inverse map: which b vid (if any) extends each output vid.
        std::vector<Vid> b_of_out(ca.distinct_count() + cb.distinct_count(),
                                  kNoVid);
        for (Vid v = 0; v < cb.distinct_count(); ++v) {
          b_to_out[v] = dict.GetOrInsert(cb.dict().value(v));
          b_of_out[b_to_out[v]] = v;
        }
        // Per value: a's bitmap then b's, concatenated in the output's
        // final container; a value absent from one side contributes a
        // zero fill of that side's rows. Grain 1 spreads a column of few
        // values over every thread.
        const ValueBitmap a_zeros = ValueBitmap::FromPositions({}, a.rows());
        const ValueBitmap b_zeros = ValueBitmap::FromPositions({}, b.rows());
        std::vector<ValueBitmap> bitmaps(dict.size());
        CODS_RETURN_NOT_OK(ParallelFor(
            exec, 0, dict.size(), 1, [&](uint64_t v) {
              bitmaps[v] = CodecConcat(
                  v < ca.distinct_count() ? ca.bitmap(static_cast<Vid>(v))
                                          : a_zeros,
                  b_of_out[v] != kNoVid ? cb.bitmap(b_of_out[v]) : b_zeros);
              return Status::OK();
            }));
        cols[i] = Column::FromValueBitmaps(ca.type(), std::move(dict),
                                           std::move(bitmaps), out_rows);
        return Status::OK();
      }));
  // Keys rarely survive a union (duplicates may appear); drop them. A
  // column stays declared SORTED only if both inputs declare it and a's
  // last value is <= b's first, so the concatenation stays in order.
  std::vector<ColumnSpec> specs = a.schema().columns();
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].sorted = specs[i].sorted && b.schema().column(i).sorted &&
                      (a.rows() == 0 || b.rows() == 0 ||
                       !(b.column(i)->GetValue(0) <
                         a.column(i)->GetValue(a.rows() - 1)));
  }
  CODS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(specs), {}));
  return Table::Make(name, std::move(schema), std::move(cols), out_rows);
}

Result<PartitionResult> PartitionTableOp(
    const Table& src, const std::string& name1, const std::string& name2,
    const std::string& column, CompareOp op, const Value& literal,
    EvolutionObserver* observer, const ExecContext* ctx) {
  ExecContext exec = ResolveContext(ctx);
  const std::string opname = "PARTITION " + src.name();
  CODS_ASSIGN_OR_RETURN(auto pred_col, src.ColumnByName(column));
  // Selection: the union of the bitmaps of qualifying dictionary values,
  // accumulated in dense words that the rank index below takes over.
  std::vector<uint64_t> selection;
  {
    ScopedStep step(observer, opname, "select",
                    column + " " + std::string(CompareOpToString(op)) + " " +
                        literal.ToString());
    std::vector<const ValueBitmap*> qualifying;
    for (Vid v = 0; v < pred_col->distinct_count(); ++v) {
      if (EvalCompare(pred_col->dict().value(v), op, literal)) {
        qualifying.push_back(&pred_col->bitmap(v));
      }
    }
    selection = CodecOrManyDense(qualifying, src.rows());
  }
  // One rank index over the selection serves both outputs: a selected
  // row's index is its rank, any other row's is its position minus it.
  const WahPositionFilter filter =
      WahPositionFilter::FromMemberWords(std::move(selection), src.rows());
  const uint64_t rows1 = filter.num_positions();
  const uint64_t rows2 = src.rows() - rows1;
  std::vector<std::shared_ptr<const Column>> cols1(src.num_columns());
  std::vector<std::shared_ptr<const Column>> cols2(src.num_columns());
  {
    ScopedStep step(observer, opname, "filtering",
                    std::to_string(rows1) + " + " + std::to_string(rows2) +
                        " rows");
    // Column tasks nest the per-vid split tasks inside
    // FilterColumnBitmaps.
    CODS_RETURN_NOT_OK(ParallelFor(
        exec, 0, src.num_columns(), 1, [&](uint64_t i) {
          cols1[i] = FilterColumnBitmaps(exec, *src.column(i), filter,
                                         &cols2[i]);
          return Status::OK();
        }));
  }
  PartitionResult result;
  CODS_ASSIGN_OR_RETURN(result.matching, Table::Make(name1, src.schema(),
                                                     std::move(cols1), rows1));
  CODS_ASSIGN_OR_RETURN(result.rest, Table::Make(name2, src.schema(),
                                                 std::move(cols2), rows2));
  return result;
}

Result<std::shared_ptr<const Table>> AddColumnOp(const Table& src,
                                                 const ColumnSpec& spec,
                                                 const Value& default_value) {
  CODS_ASSIGN_OR_RETURN(DataType vtype, default_value.type());
  if (vtype != spec.type) {
    return Status::TypeError("default value type does not match column type");
  }
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().AddColumn(spec));
  Dictionary dict;
  dict.GetOrInsert(default_value);
  WahBitmap all_ones;
  all_ones.AppendRun(true, src.rows());
  std::vector<WahBitmap> bitmaps;
  bitmaps.push_back(std::move(all_ones));
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) cols.push_back(src.column(i));
  cols.push_back(Column::FromBitmaps(spec.type, std::move(dict),
                                     std::move(bitmaps), src.rows()));
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

Result<std::shared_ptr<const Table>> AddColumnWithDataOp(
    const Table& src, const ColumnSpec& spec,
    const std::vector<Value>& values) {
  if (values.size() != src.rows()) {
    return Status::InvalidArgument(
        "ADD COLUMN data has " + std::to_string(values.size()) +
        " values for " + std::to_string(src.rows()) + " rows");
  }
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().AddColumn(spec));
  Dictionary dict;
  std::vector<Vid> vids;
  vids.reserve(values.size());
  for (const Value& v : values) {
    CODS_ASSIGN_OR_RETURN(DataType vtype, v.type());
    if (vtype != spec.type) {
      return Status::TypeError("value " + v.ToString() +
                               " does not match new column type");
    }
    vids.push_back(dict.GetOrInsert(v));
  }
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) cols.push_back(src.column(i));
  cols.push_back(Column::FromVids(spec.type, std::move(dict), vids));
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

Result<std::shared_ptr<const Table>> DropColumnOp(const Table& src,
                                                  const std::string& column) {
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().DropColumn(column));
  CODS_ASSIGN_OR_RETURN(size_t idx, src.schema().ColumnIndex(column));
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) {
    if (i != idx) cols.push_back(src.column(i));
  }
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

Result<std::shared_ptr<const Table>> RenameColumnOp(const Table& src,
                                                    const std::string& from,
                                                    const std::string& to) {
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().RenameColumn(from, to));
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) cols.push_back(src.column(i));
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

}  // namespace cods
