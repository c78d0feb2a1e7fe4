// Tests for the data-level decomposition operator: correctness against
// the query-level oracle, column reuse by pointer, distinction, observer
// steps, and randomized property tests.

#include "evolution/decompose.h"

#include "bitmap/wah_filter.h"
#include "evolution/simple_ops.h"
#include "exec/parallel_build.h"
#include "gtest/gtest.h"
#include "query/query_evolution.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::RandomFdTable;
using ::cods::testing::SortedRows;

std::vector<uint64_t> PositionsOf(const std::vector<DistinctRow>& rows) {
  std::vector<uint64_t> out;
  for (const DistinctRow& row : rows) out.push_back(row.position);
  return out;
}

TEST(Distinction, SingleColumnUsesFirstSetBits) {
  auto r = Figure1TableR();
  // Employees first appear at rows 0 (Jones), 2 (Roberts), 3 (Ellis),
  // 6 (Harrison).
  auto rows = DistinctionPositions(*r, {"Employee"}).ValueOrDie();
  EXPECT_EQ(PositionsOf(rows), (std::vector<uint64_t>{0, 2, 3, 6}));
  // Each representative carries the key's vid at its row.
  auto employee = r->ColumnByName("Employee").ValueOrDie();
  for (const DistinctRow& row : rows) {
    ASSERT_NE(row.vid, kNoVid);
    EXPECT_TRUE(employee->bitmap(row.vid).Get(row.position));
  }
}

TEST(Distinction, CompositeColumns) {
  auto r = Figure1TableR();
  // (Employee, Skill) is unique per row: all 7 positions.
  auto rows = DistinctionPositions(*r, {"Employee", "Skill"}).ValueOrDie();
  EXPECT_EQ(rows.size(), 7u);
  // (Employee, Address): same as Employee alone here. A composite key has
  // no single vid.
  rows = DistinctionPositions(*r, {"Employee", "Address"}).ValueOrDie();
  EXPECT_EQ(PositionsOf(rows), (std::vector<uint64_t>{0, 2, 3, 6}));
  for (const DistinctRow& row : rows) EXPECT_EQ(row.vid, kNoVid);
}

TEST(Distinction, ErrorsOnMissingColumn) {
  auto r = Figure1TableR();
  EXPECT_FALSE(DistinctionPositions(*r, {"Nope"}).ok());
  EXPECT_FALSE(DistinctionPositions(*r, {}).ok());
}

TEST(Decompose, Figure1MatchesThePaper) {
  auto r = Figure1TableR();
  RecordingObserver observer;
  auto result = CodsDecompose(*r, "S", {"Employee", "Skill"}, {}, "T",
                              {"Employee", "Address"}, {"Employee"},
                              &observer)
                    .ValueOrDie();

  // S: unchanged, same 7 tuples.
  EXPECT_EQ(result.s->rows(), 7u);
  EXPECT_EQ(result.s->schema().ColumnNames(),
            (std::vector<std::string>{"Employee", "Skill"}));

  // Property 1: S's columns are literally R's columns (pointer reuse).
  EXPECT_EQ(result.s->column(0).get(), r->column(0).get());
  EXPECT_EQ(result.s->column(1).get(), r->column(1).get());

  // T: one row per employee, with the right addresses.
  EXPECT_EQ(result.t->rows(), 4u);
  EXPECT_EQ(result.distinct_keys, 4u);
  std::vector<Row> t_rows = SortedRows(*result.t);
  EXPECT_EQ(t_rows[1], (Row{Value("Harrison"), Value("425 Grant Ave")}));
  EXPECT_EQ(t_rows[3],
            (Row{Value("Roberts"), Value("747 Industrial Way")}));

  // The demo's status pane sees the paper's step names.
  EXPECT_TRUE(observer.HasStep("distinction"));
  EXPECT_TRUE(observer.HasStep("filtering"));
  EXPECT_TRUE(observer.HasStep("reuse"));

  // Outputs satisfy storage invariants.
  EXPECT_TRUE(result.s->ValidateInvariants().ok());
  EXPECT_TRUE(result.t->ValidateInvariants().ok());
}

TEST(Decompose, SwappedDeclarationGeneratesTheOtherSide) {
  auto r = Figure1TableR();
  // Declare S as the keyed (changed) side instead.
  auto result = CodsDecompose(*r, "S", {"Employee", "Address"},
                              {"Employee"}, "T", {"Employee", "Skill"}, {},
                              nullptr)
                    .ValueOrDie();
  EXPECT_EQ(result.s->rows(), 4u);  // S is generated
  EXPECT_EQ(result.t->rows(), 7u);  // T reuses R
  EXPECT_EQ(result.t->column(0).get(), r->column(0).get());
}

TEST(Decompose, AgreesWithQueryLevelBaseline) {
  auto r = RandomFdTable(2000, 57, 1);
  auto cods_result = CodsDecompose(*r, "S", {"K", "V"}, {}, "T", {"K", "P"},
                                   {"K"}, nullptr)
                         .ValueOrDie();
  DecomposeSpec spec;
  spec.s_columns = {"K", "V"};
  spec.t_columns = {"K", "P"};
  spec.t_key = {"K"};
  auto oracle = ColumnQueryLevelDecompose(*r, spec, "S", "T").ValueOrDie();
  ExpectSameContent(*cods_result.s, *oracle.s);
  ExpectSameContent(*cods_result.t, *oracle.t);
}

TEST(Decompose, ValidateFdAcceptsTrueFd) {
  auto r = Figure1TableR();
  DecomposeOptions options;
  options.validate_fd = true;
  auto result = CodsDecompose(*r, "S", {"Employee", "Skill"}, {}, "T",
                              {"Employee", "Address"}, {"Employee"},
                              nullptr, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(Decompose, ValidateFdRejectsFalseDeclaration) {
  auto r = Figure1TableR();
  DecomposeOptions options;
  options.validate_fd = true;
  // Declaring Employee -> Skill (false) must be rejected.
  auto result = CodsDecompose(*r, "S", {"Employee", "Address"}, {}, "T",
                              {"Employee", "Skill"}, {"Employee"}, nullptr,
                              options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsConstraintViolation())
      << result.status().ToString();
}

TEST(Decompose, InfersUnchangedSideWithoutDeclaredKeys) {
  auto r = Figure1TableR();
  // No keys declared at all: the engine checks the data.
  auto result = CodsDecompose(*r, "S", {"Employee", "Skill"}, {}, "T",
                              {"Employee", "Address"}, {}, nullptr)
                    .ValueOrDie();
  EXPECT_EQ(result.s->rows(), 7u);
  EXPECT_EQ(result.t->rows(), 4u);
}

TEST(Decompose, RejectsNonCoveringOrDisjointOutputs) {
  auto r = Figure1TableR();
  EXPECT_TRUE(CodsDecompose(*r, "S", {"Employee"}, {}, "T",
                            {"Address"}, {}, nullptr)
                  .status()
                  .IsConstraintViolation());
  EXPECT_TRUE(CodsDecompose(*r, "S", {"Employee", "Skill"}, {}, "T",
                            {"Address"}, {}, nullptr)
                  .status()
                  .IsConstraintViolation());
}

TEST(Decompose, KeyDeclarationsLandOnOutputs) {
  auto r = Figure1TableR();
  auto result = CodsDecompose(*r, "S", {"Employee", "Skill"},
                              {"Employee", "Skill"}, "T",
                              {"Employee", "Address"}, {"Employee"},
                              nullptr)
                    .ValueOrDie();
  EXPECT_TRUE(result.s->schema().IsKey({"Employee", "Skill"}));
  EXPECT_TRUE(result.t->schema().IsKey({"Employee"}));
}

// ---- Property sweep: CODS decomposition equals the query-level result
// over random tables of varying shape.

struct DecomposeParam {
  uint64_t rows;
  uint64_t distinct;
};

class DecomposeProperty : public ::testing::TestWithParam<DecomposeParam> {};

TEST_P(DecomposeProperty, MatchesOracleAndKeepsInvariants) {
  const DecomposeParam p = GetParam();
  auto r = RandomFdTable(p.rows, p.distinct, p.rows ^ p.distinct);
  auto result = CodsDecompose(*r, "S", {"K", "V"}, {}, "T", {"K", "P"},
                              {"K"}, nullptr)
                    .ValueOrDie();
  EXPECT_EQ(result.t->rows(), p.distinct);
  EXPECT_TRUE(result.s->ValidateInvariants().ok());
  EXPECT_TRUE(result.t->ValidateInvariants().ok());

  DecomposeSpec spec;
  spec.s_columns = {"K", "V"};
  spec.t_columns = {"K", "P"};
  spec.t_key = {"K"};
  auto oracle = ColumnQueryLevelDecompose(*r, spec, "S", "T").ValueOrDie();
  ExpectSameContent(*result.s, *oracle.s);
  ExpectSameContent(*result.t, *oracle.t);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DecomposeProperty,
    ::testing::Values(DecomposeParam{1, 1}, DecomposeParam{10, 3},
                      DecomposeParam{100, 100}, DecomposeParam{500, 1},
                      DecomposeParam{1000, 7}, DecomposeParam{5000, 400},
                      DecomposeParam{20000, 2000}),
    [](const ::testing::TestParamInfo<DecomposeParam>& info) {
      return "r" + std::to_string(info.param.rows) + "_d" +
             std::to_string(info.param.distinct);
    });

// ---- The generated key column ----------------------------------------------
//
// With a single-column common key, the generated table's key column is
// built from the distinction instead of filtered. It must equal the
// filtered column, container for container.

void ExpectFilteredColumns(const Table& r, const Table& generated,
                           const std::vector<std::string>& key,
                           const std::vector<std::string>& columns) {
  WahPositionFilter filter(
      PositionsOf(DistinctionPositions(r, key).ValueOrDie()), r.rows());
  for (const std::string& name : columns) {
    auto want = FilterColumnBitmaps(ExecContext(1),
                                    *r.ColumnByName(name).ValueOrDie(), filter);
    auto got = generated.ColumnByName(name).ValueOrDie();
    EXPECT_EQ(got->rows(), want->rows()) << name;
    EXPECT_EQ(got->dict().size(), want->dict().size()) << name;
    EXPECT_EQ(got->bitmaps(), want->bitmaps()) << name;
  }
  EXPECT_TRUE(generated.ValidateInvariants().ok());
}

TEST(DecomposeKeyColumn, EqualsTheFilteredColumn) {
  for (uint64_t keys : {1, 7, 300, 2000}) {
    auto r = RandomFdTable(5000, keys, keys);
    auto result = CodsDecompose(*r, "S", {"K", "V"}, {}, "T", {"K", "P"},
                                {"K"})
                      .ValueOrDie();
    ExpectFilteredColumns(*r, *result.t, {"K"}, {"K", "P"});
  }
}

TEST(DecomposeKeyColumn, AfterPartitionKeepsEmptyValues) {
  // Both sides of a PARTITION keep the whole dictionary, so each side's K
  // has values whose bitmaps are empty; they stay empty in the output.
  auto r = RandomFdTable(5000, 300, 9);
  auto parts = PartitionTableOp(*r, "A", "B", "K", CompareOp::kLt,
                                Value(int64_t{100}))
                   .ValueOrDie();
  for (const auto& side : {parts.matching, parts.rest}) {
    auto result = CodsDecompose(*side, "S", {"K", "V"}, {}, "T", {"K", "P"},
                                {"K"})
                      .ValueOrDie();
    EXPECT_LT(result.t->rows(), result.t->column(0)->distinct_count());
    ExpectFilteredColumns(*side, *result.t, {"K"}, {"K", "P"});
  }
}

TEST(DecomposeKeyColumn, CompositeKeyFiltersEveryColumn) {
  auto r = RandomFdTable(3000, 200, 4);
  auto result = CodsDecompose(*r, "S", {"K", "P", "V"}, {}, "T", {"K", "P"},
                              {"K", "P"})
                    .ValueOrDie();
  EXPECT_EQ(result.t->rows(), 200u);
  ExpectFilteredColumns(*r, *result.t, {"K", "P"}, {"K", "P"});
}

// ---- Sorted-declared tables ------------------------------------------------
//
// A SORTED declaration no longer selects an encoding: the operators see
// the same codec columns as for the unsorted-declared twin, and answer
// identically.

TEST(SortedDecompose, DistinctionOnSortedKeyIsFirstOfRun) {
  auto r = ::cods::testing::SortedFdTable(1000, 50, /*declare_sorted=*/true);
  auto positions = DistinctionPositions(*r, {"K"}).ValueOrDie();
  ASSERT_EQ(positions.size(), 50u);
  // K = row * 50 / 1000: value k's run starts at row 20k.
  for (uint64_t k = 0; k < 50; ++k) EXPECT_EQ(positions[k].position, 20 * k);
  auto twin = ::cods::testing::SortedFdTable(1000, 50, false);
  EXPECT_EQ(positions, DistinctionPositions(*twin, {"K"}).ValueOrDie());
}

TEST(SortedDecompose, MatchesUnsortedTwinBitmapForBitmap) {
  auto r = ::cods::testing::SortedFdTable(2000, 40, true);
  auto twin = ::cods::testing::SortedFdTable(2000, 40, false);
  auto got = CodsDecompose(*r, "S", {"K", "V"}, {}, "T", {"K", "P"}, {"K"})
                 .ValueOrDie();
  auto want =
      CodsDecompose(*twin, "S", {"K", "V"}, {}, "T", {"K", "P"}, {"K"})
          .ValueOrDie();
  ExpectSameContent(*got.s, *want.s);
  ExpectSameContent(*got.t, *want.t);
  EXPECT_TRUE(got.t->schema().column(0).sorted);
  EXPECT_TRUE(got.t->ValidateInvariants().ok());
  // The declaration selects no encoding: both outputs hold the twin's
  // bitmaps, container for container.
  for (size_t c = 0; c < got.s->num_columns(); ++c) {
    EXPECT_EQ(got.s->column(c)->bitmaps(), want.s->column(c)->bitmaps());
  }
  for (size_t c = 0; c < got.t->num_columns(); ++c) {
    EXPECT_EQ(got.t->column(c)->bitmaps(), want.t->column(c)->bitmaps());
  }
}

}  // namespace
}  // namespace cods
