// Tests for the data-level decomposition operator: correctness against
// the query-level oracle, column reuse by pointer, distinction, observer
// steps, and randomized property tests.

#include "evolution/decompose.h"

#include "gtest/gtest.h"
#include "query/query_evolution.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::RandomFdTable;
using ::cods::testing::SortedRows;

TEST(Distinction, SingleColumnUsesFirstSetBits) {
  auto r = Figure1TableR();
  // Employees first appear at rows 0 (Jones), 2 (Roberts), 3 (Ellis),
  // 6 (Harrison).
  auto positions = DistinctionPositions(*r, {"Employee"}).ValueOrDie();
  EXPECT_EQ(positions, (std::vector<uint64_t>{0, 2, 3, 6}));
}

TEST(Distinction, CompositeColumns) {
  auto r = Figure1TableR();
  // (Employee, Skill) is unique per row: all 7 positions.
  auto positions =
      DistinctionPositions(*r, {"Employee", "Skill"}).ValueOrDie();
  EXPECT_EQ(positions.size(), 7u);
  // (Employee, Address): same as Employee alone here.
  positions =
      DistinctionPositions(*r, {"Employee", "Address"}).ValueOrDie();
  EXPECT_EQ(positions, (std::vector<uint64_t>{0, 2, 3, 6}));
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
  for (uint64_t k = 0; k < 50; ++k) EXPECT_EQ(positions[k], 20 * k);
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
