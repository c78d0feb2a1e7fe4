// End-to-end integration tests: the paper's Figure 1 walkthrough driven
// through the script parser and engine, cross-engine equivalence between
// CODS and every query-level baseline, and multi-step evolution chains.

#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "gtest/gtest.h"
#include "query/query_evolution.h"
#include "smo/parser.h"
#include "storage/csv.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using ::cods::testing::CatalogOf;
using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::SortedRows;

TEST(Integration, Figure1ScriptedEvolution) {
  // The full demo flow: load data, run a script, inspect results.
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({Figure1TableR()}));
  EvolutionEngine engine(&serving, nullptr,
                         EngineOptions{.validate_preconditions = true,
                                       .validate_outputs = true});

  auto script = ParseSmoScript(
                    "COPY TABLE R TO R_backup;\n"
                    "DECOMPOSE TABLE R INTO S(Employee, Skill), "
                    "T(Employee, Address) KEY(Employee);\n"
                    "MERGE TABLES S, T INTO R2 ON (Employee);\n")
                    .ValueOrDie();
  ASSERT_TRUE(engine.ApplyAll(script).ok());

  // The round trip reproduces the original tuples.
  auto r2 = serving.current()->GetTable("R2").ValueOrDie();
  ExpectSameContent(*serving.current()->GetTable("R_backup").ValueOrDie(), *r2);
}

TEST(Integration, SchemaChangeBackAndForthKeepsData) {
  // schema1 -> schema2 -> schema1 (the scenario of §1): repeated
  // decompose/merge cycles must be lossless.
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({Figure1TableR()}));
  EvolutionEngine engine(&serving);
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(engine
                    .Apply(Smo::DecomposeTable(
                        "R", "S", {"Employee", "Skill"}, {}, "T",
                        {"Employee", "Address"}, {"Employee"}))
                    .ok())
        << cycle;
    ASSERT_TRUE(
        engine.Apply(Smo::MergeTables("S", "T", "R", {"Employee"}, {}))
            .ok())
        << cycle;
  }
  ExpectSameContent(*Figure1TableR(),
                    *serving.current()->GetTable("R").ValueOrDie());
}

TEST(Integration, CodsMatchesEveryBaselineOnRandomData) {
  WorkloadSpec spec;
  spec.num_rows = 4000;
  spec.num_distinct = 250;
  auto r = GenerateEvolutionTable(spec).ValueOrDie();

  // CODS data-level path.
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({r}));
  EvolutionEngine engine(&serving);
  ASSERT_TRUE(engine
                  .Apply(Smo::DecomposeTable("R", "S", {"K", "V"}, {}, "T",
                                             {"K", "P"}, {"K"}))
                  .ok());
  auto cods_s = serving.current()->GetTable("S").ValueOrDie();
  auto cods_t = serving.current()->GetTable("T").ValueOrDie();

  DecomposeSpec spec2;
  spec2.s_columns = {"K", "V"};
  spec2.t_columns = {"K", "P"};
  spec2.t_key = {"K"};

  // M: column-store query level.
  auto m = ColumnQueryLevelDecompose(*r, spec2, "S", "T").ValueOrDie();
  ExpectSameContent(*cods_s, *m.s);
  ExpectSameContent(*cods_t, *m.t);

  // C / C+I / S: row-store baselines.
  auto heap = MaterializeToRowStore(*r).ValueOrDie();
  for (BaselineKind kind :
       {BaselineKind::kRowStore, BaselineKind::kRowStoreIndexed,
        BaselineKind::kRowStoreLite}) {
    auto rowres =
        RowStoreDecompose(*heap, spec2, kind, "S", "T").ValueOrDie();
    auto s_col = RowTableToColumnTable(*rowres.s, "S").ValueOrDie();
    auto t_col = RowTableToColumnTable(*rowres.t, "T").ValueOrDie();
    EXPECT_EQ(SortedRows(*cods_s), SortedRows(*s_col))
        << BaselineKindToString(kind);
    EXPECT_EQ(SortedRows(*cods_t), SortedRows(*t_col))
        << BaselineKindToString(kind);
  }

  // And the merge direction.
  ASSERT_TRUE(
      engine.Apply(Smo::MergeTables("S", "T", "R", {"K"}, {})).ok());
  auto cods_r = serving.current()->GetTable("R").ValueOrDie();
  ExpectSameContent(*r, *cods_r);
}

TEST(Integration, CsvInOutAroundTheEngine) {
  // Load CSV, evolve, export, reload: data survives the full pipeline.
  const char* csv =
      "Employee,Skill,Address\n"
      "Jones,Typing,425 Grant Ave\n"
      "Jones,Shorthand,425 Grant Ave\n"
      "Ellis,Alchemy,747 Industrial Way\n";
  auto r = CsvToTableInferred(csv, "R").ValueOrDie();
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({r}));
  EvolutionEngine engine(&serving);
  ASSERT_TRUE(engine
                  .Apply(Smo::DecomposeTable(
                      "R", "S", {"Employee", "Skill"}, {}, "T",
                      {"Employee", "Address"}, {"Employee"}))
                  .ok());
  auto t = serving.current()->GetTable("T").ValueOrDie();
  std::string out_csv = TableToCsv(*t);
  EXPECT_NE(out_csv.find("Jones,425 Grant Ave"), std::string::npos);
  EXPECT_NE(out_csv.find("Ellis,747 Industrial Way"), std::string::npos);

  auto reloaded = CsvToTable(out_csv, "T", t->schema()).ValueOrDie();
  ExpectSameContent(*t, *reloaded);
}

TEST(Integration, LongOperatorChain) {
  // A workload-change story: add a column, partition by it, evolve each
  // part, reunite, and clean up — exercising every operator family in
  // one chain with invariant validation on.
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({Figure1TableR()}));
  EvolutionEngine engine(&serving, nullptr,
                         EngineOptions{.validate_outputs = true});
  auto script = ParseSmoScript(
                    "ADD COLUMN Grade INT64 TO R DEFAULT 1;\n"
                    "PARTITION TABLE R INTO Grant, Rest "
                    "WHERE Address = '425 Grant Ave';\n"
                    "UNION TABLES Grant, Rest INTO R;\n"
                    "RENAME COLUMN Grade TO Level IN R;\n"
                    "DROP COLUMN Level FROM R;\n"
                    "COPY TABLE R TO Final;\n"
                    "DROP TABLE R;\n")
                    .ValueOrDie();
  ASSERT_TRUE(engine.ApplyAll(script).ok());
  auto final_table = serving.current()->GetTable("Final").ValueOrDie();
  EXPECT_EQ(SortedRows(*final_table), SortedRows(*Figure1TableR()));
  EXPECT_EQ(serving.current()->TableNames(),
            (std::vector<std::string>{"Final"}));
}

TEST(Integration, GeneralMergeAcrossEnginesOnSkewedData) {
  auto pair = GenerateGeneralMergePair(40, 5, 7, 77).ValueOrDie();
  auto cods = CodsMergeGeneral(*pair.s, *pair.t, {"J"}, {}, "R", nullptr)
                  .ValueOrDie();
  auto m = ColumnQueryLevelMerge(*pair.s, *pair.t, {"J"}, {}, "R")
               .ValueOrDie();
  ExpectSameContent(*cods, *m.r);

  auto s_heap = MaterializeToRowStore(*pair.s).ValueOrDie();
  auto t_heap = MaterializeToRowStore(*pair.t).ValueOrDie();
  auto c = RowStoreMerge(*s_heap, *t_heap, {"J"}, {},
                         BaselineKind::kRowStore, "R")
               .ValueOrDie();
  auto c_col = RowTableToColumnTable(*c.r, "R").ValueOrDie();
  EXPECT_EQ(SortedRows(*cods), SortedRows(*c_col));
}

TEST(Integration, EvolutionStatusNarratesTheDemoFlow) {
  // §3's "Tracking Data Evolution Status": the observer must see the
  // data-level steps in order, with detail strings.
  SnapshotCatalog serving;
  serving.Reset(CatalogOf({Figure1TableR()}));
  RecordingObserver observer;
  EvolutionEngine engine(&serving, &observer);
  ASSERT_TRUE(engine
                  .Apply(Smo::DecomposeTable(
                      "R", "S", {"Employee", "Skill"}, {}, "T",
                      {"Employee", "Address"}, {"Employee"}))
                  .ok());
  ASSERT_GE(observer.steps().size(), 3u);
  std::vector<std::string> names;
  for (const auto& step : observer.steps()) names.push_back(step.step);
  EXPECT_EQ(names, (std::vector<std::string>{"reuse", "distinction",
                                             "filtering"}));
  EXPECT_NE(observer.steps()[1].detail.find("Employee"),
            std::string::npos);
}

}  // namespace
}  // namespace cods
