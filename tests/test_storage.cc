// Tests for the column-store engine: values, dictionaries, bitmap
// columns, schemas, tables, catalog, and the row-order scanner.

#include <memory>

#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "storage/scanner.h"
#include "storage/table.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{42}).int64(), 42);
  EXPECT_EQ(Value(3.5).dbl(), 3.5);
  EXPECT_EQ(Value("abc").str(), "abc");
  EXPECT_EQ(Value(int64_t{42}).type().ValueOrDie(), DataType::kInt64);
  EXPECT_FALSE(Value().type().ok());
}

TEST(Value, ParseByType) {
  EXPECT_EQ(Value::Parse("42", DataType::kInt64).ValueOrDie().int64(), 42);
  EXPECT_EQ(Value::Parse("-7", DataType::kInt64).ValueOrDie().int64(), -7);
  EXPECT_FALSE(Value::Parse("4.2", DataType::kInt64).ok());
  EXPECT_DOUBLE_EQ(Value::Parse("4.5", DataType::kDouble).ValueOrDie().dbl(),
                   4.5);
  EXPECT_FALSE(Value::Parse("xyz", DataType::kDouble).ok());
  EXPECT_EQ(Value::Parse(" hi ", DataType::kString).ValueOrDie().str(),
            " hi ");
}

TEST(Value, OrderingAndEquality) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value(int64_t{1}) < Value(1.5));  // cross numeric compare
  EXPECT_TRUE(Value(1.5) < Value(int64_t{2}));
  EXPECT_TRUE(Value() < Value(int64_t{0}));  // null sorts first
  EXPECT_TRUE(Value(int64_t{5}) < Value("a"));  // numbers before strings
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // distinct alternatives
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(DataTypeNames, RoundTrip) {
  EXPECT_EQ(DataTypeFromString("INT64").ValueOrDie(), DataType::kInt64);
  EXPECT_EQ(DataTypeFromString("int").ValueOrDie(), DataType::kInt64);
  EXPECT_EQ(DataTypeFromString("double").ValueOrDie(), DataType::kDouble);
  EXPECT_EQ(DataTypeFromString("VARCHAR").ValueOrDie(), DataType::kString);
  EXPECT_FALSE(DataTypeFromString("blob").ok());
}

TEST(Dictionary, AssignsDenseIdsInFirstAppearanceOrder) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrInsert(Value("b")), 0u);
  EXPECT_EQ(dict.GetOrInsert(Value("a")), 1u);
  EXPECT_EQ(dict.GetOrInsert(Value("b")), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.value(0), Value("b"));
  EXPECT_EQ(dict.Lookup(Value("a")).value(), 1u);
  EXPECT_FALSE(dict.Lookup(Value("zzz")).has_value());
}

TEST(Column, FromVidsBuildsPartitioningBitmaps) {
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{10}));
  dict.GetOrInsert(Value(int64_t{20}));
  std::vector<Vid> vids = {0, 1, 0, 0, 1};
  auto col = Column::FromVids(DataType::kInt64, dict, vids);
  EXPECT_EQ(col->rows(), 5u);
  EXPECT_EQ(col->distinct_count(), 2u);
  EXPECT_EQ(col->bitmap(0).SetPositions(),
            (std::vector<uint64_t>{0, 2, 3}));
  EXPECT_EQ(col->bitmap(1).SetPositions(), (std::vector<uint64_t>{1, 4}));
  EXPECT_EQ(col->DecodeVids(), vids);
  EXPECT_EQ(col->GetValue(3), Value(int64_t{10}));
  EXPECT_EQ(col->ValueCount(0), 3u);
  EXPECT_TRUE(col->ValidateInvariants().ok());
}

// ---- Run-shaped (sorted) columns --------------------------------------
//
// A sorted column has no encoding of its own: each value is one run,
// which the codec stores as a WAH fill (the paper's §2.2 run-length
// encoding of sorted columns).

Dictionary IntDictionary(uint32_t values) {
  Dictionary dict;
  for (uint32_t v = 0; v < values; ++v) dict.GetOrInsert(Value(int64_t{v}));
  return dict;
}

// Number of 1-fill code words in a WAH bitmap.
size_t OneFills(const WahBitmap& wah) {
  size_t fills = 0;
  for (uint64_t w : wah.words()) {
    fills += wah::IsFill(w) && wah::FillValue(w);
  }
  return fills;
}

TEST(SortedColumn, RunsRoundTripWithPointLookups) {
  Dictionary dict;
  dict.GetOrInsert(Value("a"));
  dict.GetOrInsert(Value("b"));
  std::vector<Vid> vids = {0, 0, 0, 1, 1};
  auto col = Column::FromVids(DataType::kString, dict, vids);
  EXPECT_EQ(col->DecodeVids(), vids);
  EXPECT_EQ(col->GetValue(4), Value("b"));
  EXPECT_EQ(col->ValueCount(0), 3u);
  EXPECT_TRUE(col->ValidateInvariants().ok());
  // Run boundaries: value 1 for 100 rows, 2 for 50, 1 again for 1.
  std::vector<Vid> runs(100, 1);
  runs.insert(runs.end(), 50, 2);
  runs.push_back(1);
  auto bounded = Column::FromVids(DataType::kInt64, IntDictionary(3), runs);
  EXPECT_EQ(bounded->rows(), 151u);
  for (uint64_t row : {0, 99, 150}) {
    EXPECT_EQ(bounded->GetValue(row), Value(int64_t{1})) << row;
  }
  for (uint64_t row : {100, 149}) {
    EXPECT_EQ(bounded->GetValue(row), Value(int64_t{2})) << row;
  }
  EXPECT_EQ(bounded->ValueCount(0), 0u);
  EXPECT_EQ(bounded->ValueCount(1), 101u);
}

TEST(SortedColumn, EmptyAndRecurringValues) {
  auto empty = Column::FromVids(DataType::kInt64, IntDictionary(0), {});
  EXPECT_EQ(empty->rows(), 0u);
  EXPECT_TRUE(empty->DecodeVids().empty());
  EXPECT_TRUE(empty->ValidateInvariants().ok());
  // Equal neighbours share a run; a recurring value is one bitmap with
  // one run per occurrence.
  std::vector<Vid> vids = {0, 0, 1, 0};
  auto col = Column::FromVids(DataType::kInt64, IntDictionary(2), vids);
  EXPECT_EQ(col->DecodeVids(), vids);
  EXPECT_EQ(col->bitmap(0).SetPositions(), (std::vector<uint64_t>{0, 1, 3}));
}

TEST(SortedColumn, RandomRunsRoundTrip) {
  Rng rng(17);
  std::vector<Vid> vids;
  for (int run = 0; run < 200; ++run) {
    Vid v = static_cast<Vid>(rng.Uniform(0, 4));
    vids.insert(vids.end(), static_cast<size_t>(rng.Uniform(1, 20)), v);
  }
  auto col = Column::FromVids(DataType::kInt64, IntDictionary(5), vids);
  EXPECT_EQ(col->rows(), vids.size());
  EXPECT_EQ(col->DecodeVids(), vids);
  EXPECT_TRUE(col->ValidateInvariants().ok());
  for (int i = 0; i < 100; ++i) {
    uint64_t row = static_cast<uint64_t>(
        rng.Uniform(0, static_cast<int64_t>(vids.size()) - 1));
    EXPECT_EQ(col->GetValue(row), Value(int64_t{vids[row]})) << row;
  }
}

TEST(SortedColumn, ValuesAreSingleFillWahBitmaps) {
  std::vector<Vid> sorted;
  for (Vid v = 0; v < 10; ++v) sorted.insert(sorted.end(), 1000, v);
  auto col = Column::FromVids(DataType::kInt64, IntDictionary(10), sorted);
  uint64_t bitmap_bytes = 0;
  for (const ValueBitmap& vb : col->bitmaps()) {
    ASSERT_EQ(vb.rep(), BitmapRep::kWah) << vb.ToString();
    EXPECT_EQ(OneFills(vb.wah()), 1u) << vb.ToString();
    EXPECT_LE(vb.SizeBytes(), WahBoundBytes(1));
    bitmap_bytes += vb.SizeBytes();
  }
  // 10 runs in at most 48 B each, against 4 B per row uncompressed.
  EXPECT_LT(bitmap_bytes, sorted.size() * sizeof(uint32_t) / 50);
}

TEST(SortedColumn, MillionRowsStayWithinRunLengthFootprint) {
  // 1M rows sorted over 1000 values: each value one run of 1000 rows. A
  // run-length encoding takes 24 B per run (value, length, start) plus
  // the dictionary; the single-fill bitmaps stay within 1.3x of that.
  const uint64_t rows = 1000000, values = 1000;
  std::vector<Vid> vids(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    vids[r] = static_cast<Vid>(r * values / rows);
  }
  auto col = Column::FromVids(DataType::kInt64,
                              IntDictionary(static_cast<uint32_t>(values)),
                              vids);
  for (const ValueBitmap& vb : col->bitmaps()) {
    ASSERT_EQ(vb.rep(), BitmapRep::kWah) << vb.ToString();
  }
  const uint64_t rle_bytes = values * 24 + col->dict().SizeBytes();
  EXPECT_LE(col->SizeBytes() * 10, rle_bytes * 13)
      << col->SizeBytes() << " B vs run-length " << rle_bytes << " B";
}

TEST(Column, ValidateDetectsCorruption) {
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{1}));
  dict.GetOrInsert(Value(int64_t{2}));
  // Both bitmaps claim row 0: not a partition.
  std::vector<WahBitmap> bitmaps(2);
  bitmaps[0] = WahBitmap::FromPositions({0}, 2);
  bitmaps[1] = WahBitmap::FromPositions({0}, 2);
  auto col = Column::FromBitmaps(DataType::kInt64, dict, bitmaps, 2);
  EXPECT_FALSE(col->ValidateInvariants().ok());
}

TEST(Schema, MakeValidates) {
  EXPECT_FALSE(Schema::Make({{"a", DataType::kInt64, false},
                             {"a", DataType::kInt64, false}})
                   .ok());
  EXPECT_FALSE(
      Schema::Make({{"a", DataType::kInt64, false}}, {"missing"}).ok());
  EXPECT_FALSE(Schema::Make({{"", DataType::kInt64, false}}).ok());
  auto schema =
      Schema::Make({{"a", DataType::kInt64, false}}, {"a"}).ValueOrDie();
  EXPECT_TRUE(schema.has_key());
  EXPECT_TRUE(schema.IsKey({"a"}));
}

TEST(Schema, ColumnManipulation) {
  Schema schema({{"a", DataType::kInt64, false},
                 {"b", DataType::kString, false}},
                {"a"});
  EXPECT_EQ(schema.ColumnIndex("b").ValueOrDie(), 1u);
  EXPECT_FALSE(schema.ColumnIndex("z").ok());

  Schema renamed = schema.RenameColumn("a", "id").ValueOrDie();
  EXPECT_TRUE(renamed.HasColumn("id"));
  EXPECT_EQ(renamed.key(), (std::vector<std::string>{"id"}));
  EXPECT_FALSE(schema.RenameColumn("a", "b").ok());  // collision
  EXPECT_FALSE(schema.RenameColumn("zz", "y").ok());

  Schema added =
      schema.AddColumn({"c", DataType::kDouble, false}).ValueOrDie();
  EXPECT_EQ(added.num_columns(), 3u);
  EXPECT_FALSE(schema.AddColumn({"a", DataType::kInt64, false}).ok());

  Schema dropped = schema.DropColumn("b").ValueOrDie();
  EXPECT_EQ(dropped.num_columns(), 1u);
  EXPECT_FALSE(schema.DropColumn("a").ok());  // key column
}

TEST(Schema, IsKeyIsOrderInsensitive) {
  Schema schema({{"a", DataType::kInt64, false},
                 {"b", DataType::kInt64, false}},
                {"a", "b"});
  EXPECT_TRUE(schema.IsKey({"b", "a"}));
  EXPECT_FALSE(schema.IsKey({"a"}));
}

TEST(Table, BuilderAndMaterialize) {
  auto r = Figure1TableR();
  EXPECT_EQ(r->rows(), 7u);
  EXPECT_EQ(r->num_columns(), 3u);
  std::vector<Row> rows = r->Materialize();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0][0], Value("Jones"));
  EXPECT_EQ(rows[6][2], Value("425 Grant Ave"));
  EXPECT_EQ(r->GetValue(2, 1), Value("Light Cleaning"));
  EXPECT_TRUE(r->ValidateInvariants().ok());
}

TEST(Table, BuilderRejectsBadRows) {
  Schema schema({{"a", DataType::kInt64, false}});
  TableBuilder builder("t", schema);
  EXPECT_TRUE(builder.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(builder.AppendRow({Value("str")}).ok());       // wrong type
  EXPECT_FALSE(builder.AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_FALSE(builder.AppendRow({Value()}).ok());            // null
}

TEST(Table, MakeValidatesShape) {
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{1}));
  auto col = Column::FromVids(DataType::kInt64, dict, {0, 0});
  Schema schema({{"a", DataType::kInt64, false}});
  EXPECT_TRUE(Table::Make("t", schema, {col}, 2).ok());
  EXPECT_FALSE(Table::Make("t", schema, {col}, 3).ok());  // row mismatch
  EXPECT_FALSE(Table::Make("t", schema, {}, 2).ok());     // arity mismatch
  Schema wrong({{"a", DataType::kString, false}});
  EXPECT_FALSE(Table::Make("t", wrong, {col}, 2).ok());   // type mismatch
}

TEST(Table, WithNameSharesColumns) {
  auto r = Figure1TableR();
  auto r2 = r->WithName("R2");
  EXPECT_EQ(r2->name(), "R2");
  EXPECT_EQ(r2->column(0).get(), r->column(0).get());
}

TEST(Scanner, DecodesRowOrder) {
  auto r = Figure1TableR();
  TableScanner scanner(*r);
  EXPECT_EQ(scanner.rows(), 7u);
  EXPECT_EQ(scanner.width(), 3u);
  EXPECT_EQ(scanner.GetRow(3),
            (Row{Value("Ellis"), Value("Alchemy"),
                 Value("747 Industrial Way")}));
}

TEST(Scanner, ProjectionScansSubset) {
  auto r = Figure1TableR();
  TableScanner scanner(*r, {2, 0});
  EXPECT_EQ(scanner.width(), 2u);
  EXPECT_EQ(scanner.GetRow(0), (Row{Value("425 Grant Ave"), Value("Jones")}));
}

TEST(Catalog, CrudOperations) {
  Catalog catalog;
  auto r = Figure1TableR();
  EXPECT_TRUE(catalog.AddTable(r).ok());
  EXPECT_TRUE(catalog.AddTable(r).IsAlreadyExists());
  EXPECT_TRUE(catalog.HasTable("R"));
  EXPECT_EQ(catalog.GetTable("R").ValueOrDie()->rows(), 7u);
  EXPECT_TRUE(catalog.GetTable("missing").status().IsKeyError());

  EXPECT_TRUE(catalog.RenameTable("R", "R1").ok());
  EXPECT_FALSE(catalog.HasTable("R"));
  EXPECT_EQ(catalog.GetTable("R1").ValueOrDie()->name(), "R1");
  EXPECT_TRUE(catalog.RenameTable("missing", "x").IsKeyError());

  auto other = Figure1TableR()->WithName("R2");
  EXPECT_TRUE(catalog.AddTable(other).ok());
  EXPECT_FALSE(catalog.RenameTable("R1", "R2").ok());
  EXPECT_EQ(catalog.TableNames(),
            (std::vector<std::string>{"R1", "R2"}));

  EXPECT_TRUE(catalog.DropTable("R1").ok());
  EXPECT_TRUE(catalog.DropTable("R1").IsKeyError());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(Table, SizeBytesReflectsCompression) {
  // A constant column must compress far better than a high-cardinality
  // one of the same length.
  Schema schema({{"c", DataType::kInt64, false}});
  TableBuilder constant("const", schema);
  TableBuilder distinct("dist", schema);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(constant.AppendRow({Value(int64_t{7})}).ok());
    ASSERT_TRUE(distinct.AppendRow({Value(i)}).ok());
  }
  auto tc = constant.Finish().ValueOrDie();
  auto td = distinct.Finish().ValueOrDie();
  EXPECT_LT(tc->SizeBytes() * 10, td->SizeBytes());
}

}  // namespace
}  // namespace cods
