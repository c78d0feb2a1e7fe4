// Tests for the QueryEngine: typed requests (select / count /
// group-by-sum) executed against the TableStore interface — both the
// live Catalog and a StagedCatalog::View mid-script — plus projection,
// WHERE narrowing, bind-time errors, and request rendering.

#include "query/query_engine.h"

#include "concurrency/snapshot_catalog.h"
#include "evolution/decompose.h"
#include "evolution/engine.h"
#include "evolution/merge.h"
#include "evolution/simple_ops.h"
#include "gtest/gtest.h"
#include "plan/staged_catalog.h"
#include "query/join.h"
#include "smo/parser.h"
#include "storage/value_compare.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

Catalog MakeCatalogWithR() {
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(Figure1TableR()));
  return catalog;
}

ExprPtr JonesExpr() {
  return Expr::Compare("Employee", CompareOp::kEq, Value("Jones"));
}

TEST(QueryEngine, CountAgainstCatalog) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result = engine.Execute(QueryRequest::Count("R", JonesExpr()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verb, QueryRequest::Verb::kCount);
  EXPECT_EQ(result->count, 3u);
  // Null WHERE counts everything without touching bitmaps.
  EXPECT_EQ(engine.Execute(QueryRequest::Count("R")).ValueOrDie().count, 7u);
  // A conjunction narrows to one row (Harrison); one more leaf on a value
  // absent from the dictionary empties it.
  std::vector<ExprPtr> leaves = {
      Expr::Compare("Address", CompareOp::kEq, Value("425 Grant Ave")),
      Expr::Compare("Skill", CompareOp::kEq, Value("Light Cleaning"))};
  EXPECT_EQ(engine.Execute(QueryRequest::Count("R", Expr::And(leaves)))
                .ValueOrDie()
                .count,
            1u);
  leaves.push_back(
      Expr::Compare("Employee", CompareOp::kEq, Value("Nobody")));
  EXPECT_EQ(engine.Execute(QueryRequest::Count("R", Expr::And(leaves)))
                .ValueOrDie()
                .count,
            0u);
}

TEST(QueryEngine, CountOfOneComparisonAgreesWithNaiveScan) {
  // Single-leaf COUNTs (the O(1) per-value-count path) against a
  // row-at-a-time oracle, pivots inside and outside the key domain.
  struct Grid {
    uint64_t rows;
    uint64_t distinct;
    int64_t pivot;
  };
  for (const Grid& g : {Grid{100, 10, 5}, Grid{1000, 50, 25},
                        Grid{5000, 500, 100}, Grid{5000, 500, -1},
                        Grid{5000, 500, 10000}}) {
    WorkloadSpec spec;
    spec.num_rows = g.rows;
    spec.num_distinct = g.distinct;
    Catalog catalog;
    CODS_CHECK_OK(catalog.AddTable(GenerateEvolutionTable(spec).ValueOrDie()));
    QueryEngine engine(&catalog);
    const std::vector<Row> rows =
        catalog.GetTable("R").ValueOrDie()->Materialize();
    for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe,
                         CompareOp::kNe}) {
      auto count = engine.Execute(QueryRequest::Count(
          "R", Expr::Compare(kKeyColumn, op, Value(g.pivot))));
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      uint64_t naive = 0;
      for (const Row& row : rows) {
        if (EvalCompare(row[0], op, Value(g.pivot))) ++naive;
      }
      EXPECT_EQ(count->count, naive)
          << g.rows << "/" << g.distinct << " K " << CompareOpToString(op)
          << " " << g.pivot;
    }
  }
}

TEST(QueryEngine, SelectMaterializesMatchingRows) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result = engine.Execute(
      QueryRequest::Select("R", {}, JonesExpr(), "jones"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->table, nullptr);
  EXPECT_EQ(result->table->name(), "jones");
  EXPECT_EQ(result->table->rows(), 3u);
  EXPECT_TRUE(result->table->ValidateInvariants().ok());
  for (const Row& row : result->table->Materialize()) {
    EXPECT_EQ(row[0], Value("Jones"));
  }
}

TEST(QueryEngine, SelectProjectsColumnsInRequestOrder) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result = engine.Execute(QueryRequest::Select(
      "R", {"Skill", "Employee"}, JonesExpr(), "skills"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& t = *result->table;
  ASSERT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.schema().column(0).name, "Skill");
  EXPECT_EQ(t.schema().column(1).name, "Employee");
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.GetValue(0, 0), Value("Typing"));
  EXPECT_EQ(t.GetValue(0, 1), Value("Jones"));
}

TEST(QueryEngine, SelectWithoutWhereSharesColumns) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto result =
      engine.Execute(QueryRequest::Select("R", {"Address"}, nullptr, "a"));
  ASSERT_TRUE(result.ok());
  // Projection without selection is pointer sharing, not a rebuild.
  EXPECT_EQ(result->table->column(0).get(),
            catalog.GetTable("R").ValueOrDie()->column(2).get());
  EXPECT_EQ(result->table->rows(), 7u);
}

TEST(QueryEngine, ProjectionKeepsKeyOnlyWhenRetained) {
  Schema schema({{"k", DataType::kInt64, false},
                 {"v", DataType::kInt64, false}},
                {"k"});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value(i), Value(i % 3)});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable("T", schema, rows)));
  QueryEngine engine(&catalog);
  auto keyed =
      engine.Execute(QueryRequest::Select("T", {"k", "v"}, nullptr, "p1"));
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(keyed->table->schema().key(), std::vector<std::string>{"k"});
  auto unkeyed =
      engine.Execute(QueryRequest::Select("T", {"v"}, nullptr, "p2"));
  ASSERT_TRUE(unkeyed.ok());
  EXPECT_TRUE(unkeyed->table->schema().key().empty());
}

TEST(QueryEngine, GroupBySumWithAndWithoutWhere) {
  Schema schema({{"g", DataType::kString, false},
                 {"m", DataType::kInt64, false}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value("a"), Value(int64_t{1})},
       {Value("a"), Value(int64_t{2})},
       {Value("b"), Value(int64_t{10})},
       {Value("b"), Value(int64_t{20})},
       {Value("c"), Value(int64_t{5})}})));
  QueryEngine engine(&catalog);
  auto all = engine.Execute(QueryRequest::GroupBySum("T", "g", "m"));
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->groups.size(), 3u);
  EXPECT_EQ(all->groups[0], (GroupRow{Value("a"), {Value(3.0)}}));
  EXPECT_EQ(all->groups[1], (GroupRow{Value("b"), {Value(30.0)}}));
  EXPECT_EQ(all->groups[2], (GroupRow{Value("c"), {Value(5.0)}}));
  // WHERE narrows each group: only m >= 2 rows contribute.
  auto narrowed = engine.Execute(QueryRequest::GroupBySum(
      "T", "g", "m",
      Expr::Compare("m", CompareOp::kGe, Value(int64_t{2}))));
  ASSERT_TRUE(narrowed.ok());
  EXPECT_EQ(narrowed->groups[0].aggregates[0], Value(2.0));
  EXPECT_EQ(narrowed->groups[1].aggregates[0], Value(30.0));
  EXPECT_EQ(narrowed->groups[2].aggregates[0], Value(5.0));
  // A WHERE that leaves a group no qualifying rows drops the group
  // entirely (SQL GROUP BY semantics), rather than reporting a
  // phantom 0.
  auto only_b = engine.Execute(QueryRequest::GroupBySum(
      "T", "g", "m",
      Expr::Compare("m", CompareOp::kGe, Value(int64_t{10}))));
  ASSERT_TRUE(only_b.ok());
  ASSERT_EQ(only_b->groups.size(), 1u);
  EXPECT_EQ(only_b->groups[0], (GroupRow{Value("b"), {Value(30.0)}}));
  // String measures are a type error.
  EXPECT_TRUE(engine.Execute(QueryRequest::GroupBySum("T", "g", "g"))
                  .status()
                  .IsTypeError());
}

TEST(QueryEngine, GroupByMultiAggregate) {
  Schema schema({{"g", DataType::kString, false},
                 {"m", DataType::kInt64, false}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value("a"), Value(int64_t{1})},
       {Value("a"), Value(int64_t{2})},
       {Value("b"), Value(int64_t{10})},
       {Value("b"), Value(int64_t{20})},
       {Value("b"), Value(int64_t{30})},
       {Value("c"), Value(int64_t{5})}})));
  QueryEngine engine(&catalog);
  auto result = engine.Execute(QueryRequest::GroupBy(
      "T", "g",
      {AggregateSpec::Sum("m"), AggregateSpec::Count(), AggregateSpec::Min("m"),
       AggregateSpec::Max("m"), AggregateSpec::Avg("m")}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->groups.size(), 3u);
  EXPECT_EQ(result->groups[0],
            (GroupRow{Value("a"),
                      {Value(3.0), Value(int64_t{2}), Value(int64_t{1}),
                       Value(int64_t{2}), Value(1.5)}}));
  EXPECT_EQ(result->groups[1],
            (GroupRow{Value("b"),
                      {Value(60.0), Value(int64_t{3}), Value(int64_t{10}),
                       Value(int64_t{30}), Value(20.0)}}));
  EXPECT_EQ(result->groups[2],
            (GroupRow{Value("c"),
                      {Value(5.0), Value(int64_t{1}), Value(int64_t{5}),
                       Value(int64_t{5}), Value(5.0)}}));
  // MIN/MAX run on strings too (total Value order); SUM on a string is
  // still a type error; COUNT(col) equals COUNT(*) (no NULLs).
  auto strings = engine.Execute(QueryRequest::GroupBy(
      "T", "m", {AggregateSpec::Min("g"), AggregateSpec::Count("g")},
      Expr::Compare("m", CompareOp::kLe, Value(int64_t{2}))));
  ASSERT_TRUE(strings.ok()) << strings.status().ToString();
  ASSERT_EQ(strings->groups.size(), 2u);
  EXPECT_EQ(strings->groups[0],
            (GroupRow{Value(int64_t{1}), {Value("a"), Value(int64_t{1})}}));
  EXPECT_TRUE(engine
                  .Execute(QueryRequest::GroupBy("T", "m",
                                                 {AggregateSpec::Avg("g")}))
                  .status()
                  .IsTypeError());
  // An aggregate-free request is rejected.
  EXPECT_FALSE(engine.Execute(QueryRequest::GroupBy("T", "g", {})).ok());
}

TEST(QueryEngine, GroupByDictionaryCompleteGroupsAggregateToNull) {
  // Without a WHERE, output is dictionary-complete: a value with no
  // rows (possible after evolution shares dictionaries) keeps SUM=0 /
  // COUNT=0 — and MIN/MAX/AVG are NULL, not a fabricated value.
  Schema schema({{"g", DataType::kString, false},
                 {"m", DataType::kInt64, false}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value("a"), Value(int64_t{4})}, {Value("b"), Value(int64_t{7})}})));
  QueryEngine engine(&catalog);
  auto filtered = QueryEngine::SelectRows(
      *catalog.GetTable("T").ValueOrDie(), {},
      Expr::Compare("g", CompareOp::kNe, Value("b")), "T2");
  ASSERT_TRUE(filtered.ok());
  auto groups = QueryEngine::GroupByRows(
      **filtered, "g",
      {AggregateSpec::Sum("m"), AggregateSpec::Count(), AggregateSpec::Min("m"),
       AggregateSpec::Avg("m")},
      nullptr);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 2u);
  EXPECT_EQ((*groups)[0],
            (GroupRow{Value("a"),
                      {Value(4.0), Value(int64_t{1}), Value(int64_t{4}),
                       Value(4.0)}}));
  EXPECT_EQ((*groups)[1],
            (GroupRow{Value("b"),
                      {Value(0.0), Value(int64_t{0}), Value::Null(),
                       Value::Null()}}));
}

TEST(QueryEngine, DuplicateProjectionColumnsAreAnErrorWithPositions) {
  // Defined behavior: a column named twice in the projection — under
  // any pair of references resolving to the same column — errors with
  // both positions, instead of surfacing a schema-construction failure.
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto dup = engine.Execute(
      QueryRequest::Select("R", {"Skill", "Employee", "Skill"}, nullptr, "d"));
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate column 'Skill'"),
            std::string::npos)
      << dup.status().ToString();
  EXPECT_NE(dup.status().message().find("positions 1 and 3"),
            std::string::npos)
      << dup.status().ToString();
  // A qualified and a plain reference to the same column also collide.
  auto mixed = engine.Execute(
      QueryRequest::Select("R", {"R.Skill", "Skill"}, nullptr, "d2"));
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.status().message().find("duplicate column 'Skill'"),
            std::string::npos);
}

TEST(QueryEngine, ExplicitlyListedKeyIsProjectedExactlyOnce) {
  Schema schema({{"k", DataType::kInt64, false},
                 {"v", DataType::kInt64, false}},
                {"k"});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back({Value(i), Value(i % 2)});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable("T", schema, rows)));
  QueryEngine engine(&catalog);
  // Naming the key explicitly (even via a qualified reference) yields
  // exactly one key column and keeps the key declaration.
  auto keyed = engine.Execute(
      QueryRequest::Select("T", {"T.k", "v"}, nullptr, "p"));
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  ASSERT_EQ(keyed->table->num_columns(), 2u);
  EXPECT_EQ(keyed->table->schema().column(0).name, "k");
  EXPECT_EQ(keyed->table->schema().key(), std::vector<std::string>{"k"});
}

TEST(QueryEngine, EmptySelectResultIsARealTableWithSchema) {
  // A filtered-to-empty SELECT returns a real 0-row table whose
  // rendering includes the schema header — distinguishable from a
  // failed query (which returns a Status, never a table).
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto empty = engine.Execute(QueryRequest::Select(
      "R", {"Employee"},
      Expr::Compare("Employee", CompareOp::kEq, Value("Nobody")), "none"));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_NE(empty->table, nullptr);
  EXPECT_EQ(empty->table->rows(), 0u);
  EXPECT_EQ(empty->table->num_columns(), 1u);
  std::string rendered = empty->ToString();
  EXPECT_NE(rendered.find("none"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("Employee"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("0 rows"), std::string::npos) << rendered;
}

TEST(QueryEngine, ErrorsNameTheMissingPiece) {
  Catalog catalog = MakeCatalogWithR();
  QueryEngine engine(&catalog);
  auto no_table = engine.Execute(QueryRequest::Count("Nope"));
  ASSERT_FALSE(no_table.ok());
  EXPECT_NE(no_table.status().message().find("Nope"), std::string::npos);
  // Unknown column binds (and fails) at execution time.
  auto no_column = engine.Execute(QueryRequest::Count(
      "R", Expr::Compare("Ghost", CompareOp::kEq, Value("x"))));
  ASSERT_FALSE(no_column.ok());
  EXPECT_NE(no_column.status().message().find("Ghost"), std::string::npos);
}

TEST(QueryEngine, RunsAgainstStagedCatalogView) {
  // The acceptance shape: the same request answers differently through
  // a StagedCatalog::View that has staged (uncommitted) evolution.
  Catalog catalog = MakeCatalogWithR();
  StagedCatalog staged(&catalog);
  std::vector<CatalogEffect> log;
  StagedCatalog::View view = staged.MakeView(&log);

  // Stage an overlay change: drop R, publish a filtered replacement.
  QueryEngine base_engine(&catalog);
  auto jones = QueryEngine::SelectRows(
      *catalog.GetTable("R").ValueOrDie(), {}, JonesExpr(), "R");
  ASSERT_TRUE(jones.ok());
  view.PutTable(jones.ValueOrDie());

  QueryRequest count_all = QueryRequest::Count("R");
  QueryEngine staged_engine(&view);
  EXPECT_EQ(staged_engine.Execute(count_all).ValueOrDie().count, 3u);
  // The base catalog is untouched until the effects replay.
  EXPECT_EQ(base_engine.Execute(count_all).ValueOrDie().count, 7u);
  ASSERT_EQ(log.size(), 1u);

  // A nested expression executes identically through the view.
  QueryRequest nested = QueryRequest::Count(
      "R", Expr::And({Expr::Compare("Address", CompareOp::kEq,
                                    Value("425 Grant Ave")),
                      Expr::Not(Expr::In("Skill", {Value("Typing")}))}));
  EXPECT_EQ(staged_engine.Execute(nested).ValueOrDie().count, 2u);
}

TEST(QueryEngine, QueryAfterEvolutionSeesNewSchema) {
  // Queries interleave with SMOs against the same catalog: evolve, then
  // query the produced tables through the same store interface.
  SnapshotCatalog serving;
  serving.Reset(MakeCatalogWithR());
  EvolutionEngine engine(&serving, nullptr);
  Status st = engine.ApplyAll({Smo::DecomposeTable(
      "R", "S", {"Employee", "Skill"}, {}, "T", {"Employee", "Address"},
      {"Employee"})});
  ASSERT_TRUE(st.ok()) << st.ToString();
  Snapshot snap = serving.GetSnapshot();
  QueryEngine queries(snap.store());
  auto addresses = queries.Execute(QueryRequest::Select(
      "T", {"Address"},
      Expr::Compare("Employee", CompareOp::kEq, Value("Jones")), "addr"));
  ASSERT_TRUE(addresses.ok()) << addresses.status().ToString();
  EXPECT_EQ(addresses->table->rows(), 1u);
  EXPECT_EQ(addresses->table->GetValue(0, 0), Value("425 Grant Ave"));
}

Catalog MakeJoinCatalog() {
  Catalog catalog;
  Schema emp({{"Employee", DataType::kString, false},
              {"Skill", DataType::kString, false}},
             {});
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "S", emp,
      {{Value("Jones"), Value("Typing")},
       {Value("Jones"), Value("Shorthand")},
       {Value("Ellis"), Value("Alchemy")},
       {Value("Nobody"), Value("Idling")}})));
  Schema addr({{"Employee", DataType::kString, false},
               {"Address", DataType::kString, false}},
              {"Employee"});
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", addr,
      {{Value("Jones"), Value("425 Grant Ave")},
       {Value("Ellis"), Value("747 Industrial Way")},
       {Value("Harrison"), Value("425 Grant Ave")}})));
  return catalog;
}

TEST(QueryEngine, JoinSelectQualifiesColumnsAndDropsUnmatchedRows) {
  Catalog catalog = MakeJoinCatalog();
  QueryEngine engine(&catalog);
  QueryRequest req = QueryRequest::Select("S", {}, nullptr, "joined");
  req.JoinOn("T", "S.Employee", "T.Employee");
  auto result = engine.Execute(req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& j = *result->table;
  // S's 'Nobody' has no address: inner-join semantics drop the row
  // (MERGE TABLES would raise a foreign-key violation instead).
  EXPECT_EQ(j.rows(), 3u);
  ASSERT_EQ(j.num_columns(), 3u);
  EXPECT_EQ(j.schema().column(0).name, "S.Employee");
  EXPECT_EQ(j.schema().column(1).name, "S.Skill");
  EXPECT_EQ(j.schema().column(2).name, "T.Address");
  EXPECT_TRUE(j.ValidateInvariants().ok());
  EXPECT_EQ(j.GetValue(0, 0), Value("Jones"));
  EXPECT_EQ(j.GetValue(0, 2), Value("425 Grant Ave"));
  EXPECT_EQ(j.GetValue(2, 0), Value("Ellis"));
  EXPECT_EQ(j.GetValue(2, 2), Value("747 Industrial Way"));
}

TEST(QueryEngine, JoinWhereMixesBothSidesAndAliasesTheJoinColumn) {
  Catalog catalog = MakeJoinCatalog();
  QueryEngine engine(&catalog);
  // WHERE references columns of both sides; projection references the
  // ELIDED right join column (T.Employee), which aliases onto
  // S.Employee.
  QueryRequest req = QueryRequest::Select(
      "S", {"T.Employee", "Skill"},
      Expr::And({Expr::Compare("T.Address", CompareOp::kEq,
                               Value("425 Grant Ave")),
                 Expr::Compare("S.Skill", CompareOp::kNe, Value("Typing"))}),
      "mixed");
  req.JoinOn("T", "Employee", "Employee");
  auto result = engine.Execute(req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table->rows(), 1u);
  EXPECT_EQ(result->table->GetValue(0, 0), Value("Jones"));
  EXPECT_EQ(result->table->GetValue(0, 1), Value("Shorthand"));
  // COUNT and GROUP BY run over the join too.
  QueryRequest count = QueryRequest::Count(
      "S", Expr::Compare("T.Address", CompareOp::kEq,
                         Value("425 Grant Ave")));
  count.JoinOn("T", "Employee", "Employee");
  EXPECT_EQ(engine.Execute(count).ValueOrDie().count, 2u);
  QueryRequest grouped = QueryRequest::GroupBy(
      "S", "T.Address", {AggregateSpec::Count()});
  grouped.JoinOn("T", "Employee", "Employee");
  auto groups = engine.Execute(grouped);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->groups.size(), 2u);
  EXPECT_EQ(groups->groups[0],
            (GroupRow{Value("425 Grant Ave"), {Value(int64_t{2})}}));
  EXPECT_EQ(groups->groups[1],
            (GroupRow{Value("747 Industrial Way"), {Value(int64_t{1})}}));
}

TEST(QueryEngine, JoinRejectsAmbiguityAndSelfJoin) {
  Catalog catalog = MakeJoinCatalog();
  QueryEngine engine(&catalog);
  // Plain 'Employee' is ambiguous across the two sides of the join
  // result — the elided right column aliases, but a plain reference to
  // a column BOTH sides kept must error.
  Schema extra({{"Employee", DataType::kString, false},
                {"Skill", DataType::kString, false}},
               {});
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "U", extra, {{Value("Jones"), Value("Typing")}})));
  QueryRequest req = QueryRequest::Select("S", {"Skill"}, nullptr, "x");
  req.JoinOn("U", "S.Employee", "U.Employee");
  auto ambiguous = engine.Execute(req);
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_NE(ambiguous.status().message().find("ambiguous column 'Skill'"),
            std::string::npos)
      << ambiguous.status().ToString();
  QueryRequest self = QueryRequest::Count("S");
  self.JoinOn("S", "Employee", "Employee");
  EXPECT_FALSE(engine.Execute(self).ok());
}

TEST(QueryEngine, BareReferenceToElidedJoinColumnIsAmbiguousWhenShadowed) {
  // O(id, customer_id) JOIN C(id, city) ON O.customer_id = C.id: C.id
  // is elided from the join result, so a bare 'id' would silently
  // suffix-bind to O.id — a DIFFERENT column. SQL semantics: error as
  // ambiguous; qualified references stay exact.
  Schema orders({{"id", DataType::kInt64, false},
                 {"customer_id", DataType::kInt64, false}},
                {"id"});
  Schema customers({{"id", DataType::kInt64, false},
                    {"city", DataType::kString, false}},
                   {"id"});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "O", orders,
      {{Value(int64_t{100}), Value(int64_t{10})},
       {Value(int64_t{101}), Value(int64_t{20})},
       {Value(int64_t{102}), Value(int64_t{10})}})));
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "C", customers,
      {{Value(int64_t{10}), Value("NY")}, {Value(int64_t{20}), Value("SF")}})));
  QueryEngine engine(&catalog);
  QueryRequest bare = QueryRequest::Count(
      "O", Expr::Compare("id", CompareOp::kEq, Value(int64_t{10})));
  bare.JoinOn("C", "O.customer_id", "C.id");
  auto ambiguous = engine.Execute(bare);
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_NE(ambiguous.status().message().find("ambiguous column 'id'"),
            std::string::npos)
      << ambiguous.status().ToString();
  // Qualified: C.id aliases onto the kept join column (= customer_id).
  QueryRequest qualified = QueryRequest::Count(
      "C", Expr::Compare("C.id", CompareOp::kEq, Value(int64_t{10})));
  qualified.JoinOn("O", "C.id", "O.customer_id");
  EXPECT_EQ(engine.Execute(qualified).ValueOrDie().count, 2u);
  // COUNT(*) with no WHERE takes the count-only path: no columns are
  // built, and the answer matches the materializing plan.
  QueryRequest count_all = QueryRequest::Count("O");
  count_all.JoinOn("C", "O.customer_id", "C.id");
  EXPECT_EQ(engine.Execute(count_all).ValueOrDie().count, 3u);
  JoinStats stats;
  EXPECT_EQ(CompressedEquiJoinCount(*catalog.GetTable("O").ValueOrDie(),
                                    *catalog.GetTable("C").ValueOrDie(), 1, 0,
                                    &stats)
                .ValueOrDie(),
            3u);
  EXPECT_EQ(stats.path, "count-only");
}

TEST(QueryEngine, OrderByAndLimit) {
  Schema schema({{"k", DataType::kInt64, false},
                 {"v", DataType::kInt64, false}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value(int64_t{0}), Value(int64_t{3})},
       {Value(int64_t{1}), Value(int64_t{1})},
       {Value(int64_t{2}), Value(int64_t{3})},
       {Value(int64_t{3}), Value(int64_t{2})},
       {Value(int64_t{4}), Value(int64_t{1})}})));
  QueryEngine engine(&catalog);
  // Ascending, stable on row position within equal keys.
  QueryRequest asc = QueryRequest::Select("T");
  asc.OrderBy("v");
  auto up = engine.Execute(asc);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  std::vector<int64_t> ks;
  for (const Row& row : up->table->Materialize()) {
    ks.push_back(row[0].int64());
  }
  EXPECT_EQ(ks, (std::vector<int64_t>{1, 4, 3, 0, 2}));
  // Descending reverses value buckets, not the tiebreak inside them.
  QueryRequest desc = QueryRequest::Select("T");
  desc.OrderBy("v", /*desc=*/true);
  auto down = engine.Execute(desc);
  ASSERT_TRUE(down.ok());
  ks.clear();
  for (const Row& row : down->table->Materialize()) {
    ks.push_back(row[0].int64());
  }
  EXPECT_EQ(ks, (std::vector<int64_t>{0, 2, 3, 1, 4}));
  // LIMIT truncates after the sort; a sort column outside the
  // projection orders the rows but is not part of the result.
  QueryRequest top = QueryRequest::Select("T", {"k"});
  top.OrderBy("v", true).Limit(2);
  auto limited = engine.Execute(top);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited->table->num_columns(), 1u);
  ASSERT_EQ(limited->table->rows(), 2u);
  EXPECT_EQ(limited->table->GetValue(0, 0), Value(int64_t{0}));
  EXPECT_EQ(limited->table->GetValue(1, 0), Value(int64_t{2}));
  // Pure LIMIT keeps input order; LIMIT past the row count is benign;
  // ORDER BY on a count is rejected.
  QueryRequest head = QueryRequest::Select("T");
  head.Limit(3);
  EXPECT_EQ(engine.Execute(head).ValueOrDie().table->rows(), 3u);
  QueryRequest all = QueryRequest::Select("T");
  all.Limit(99);
  EXPECT_EQ(engine.Execute(all).ValueOrDie().table->rows(), 5u);
  QueryRequest bad = QueryRequest::Count("T");
  bad.OrderBy("v");
  EXPECT_FALSE(engine.Execute(bad).ok());
  // A QUALIFIED sort reference binds against the queried table, even
  // though the filtered intermediate is renamed to the output name —
  // with the sort column inside and outside the projection.
  QueryRequest qualified = QueryRequest::Select("T", {"k", "v"});
  qualified.OrderBy("T.v", true).Limit(1);
  auto q = engine.Execute(qualified);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->table->GetValue(0, 0), Value(int64_t{0}));
  QueryRequest qualified_out = QueryRequest::Select("T", {"k"});
  qualified_out.OrderBy("T.v", true).Limit(1);
  auto q2 = engine.Execute(qualified_out);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  ASSERT_EQ(q2->table->num_columns(), 1u);
  EXPECT_EQ(q2->table->GetValue(0, 0), Value(int64_t{0}));
}

TEST(QueryEngine, OrderByNaNSortsLastAndMixedNumericsInterleave) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"x", DataType::kDouble, false},
                 {"tag", DataType::kInt64, false}},
                {});
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(MakeTable(
      "T", schema,
      {{Value(2.5), Value(int64_t{0})},
       {Value(nan), Value(int64_t{1})},
       {Value(-1.0), Value(int64_t{2})},
       {Value(nan), Value(int64_t{3})},
       {Value(0.5), Value(int64_t{4})}})));
  QueryEngine engine(&catalog);
  QueryRequest asc = QueryRequest::Select("T");
  asc.OrderBy("x");
  auto up = engine.Execute(asc);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  std::vector<int64_t> tags;
  for (const Row& row : up->table->Materialize()) {
    tags.push_back(row[1].int64());
  }
  // NaNs order after every real number, stable among themselves.
  EXPECT_EQ(tags, (std::vector<int64_t>{2, 4, 0, 1, 3}));
  // DESC: NaNs first (bucket order reversed), tiebreak still by
  // position.
  QueryRequest desc = QueryRequest::Select("T");
  desc.OrderBy("x", true);
  tags.clear();
  for (const Row& row :
       engine.Execute(desc).ValueOrDie().table->Materialize()) {
    tags.push_back(row[1].int64());
  }
  EXPECT_EQ(tags, (std::vector<int64_t>{1, 3, 0, 4, 2}));
}

TEST(QueryEngine, RequestToStringRoundTripsShape) {
  QueryRequest select = QueryRequest::Select(
      "R", {"a", "b"},
      Expr::And({Expr::Compare("a", CompareOp::kEq, Value("x")),
                 Expr::Or({Expr::Compare("b", CompareOp::kGt,
                                         Value(int64_t{3})),
                           Expr::Not(Expr::In("c", {Value(int64_t{1}),
                                                    Value(int64_t{2})}))})}));
  EXPECT_EQ(select.ToString(),
            "SELECT a, b FROM R WHERE a = 'x' AND (b > 3 OR NOT c IN (1, 2))");
  EXPECT_EQ(QueryRequest::Count("R").ToString(), "SELECT COUNT(*) FROM R");
  EXPECT_EQ(QueryRequest::GroupBySum("T", "g", "m").ToString(),
            "SELECT g, SUM(m) FROM T GROUP BY g");
}

// ---- snapshot pinning (src/concurrency/) ----------------------------------
//
// The QueryEngine runs against the TableStore interface, so a pinned
// CatalogRoot is just another store: these cases prove a reader's view
// is the root it pinned, not the root the writer is publishing.

TEST(QueryEngine, PinnedSnapshotKeepsPreEvolutionSchema) {
  SnapshotCatalog serving;
  serving.Reset(MakeCatalogWithR());
  Snapshot pinned = serving.GetSnapshot();

  EvolutionEngine evolution(&serving);
  ASSERT_TRUE(evolution.Apply(Smo::DropColumn("R", "Address")).ok());

  // Through the pin: the old schema, Address included.
  auto old_r = QueryEngine(pinned.store())
                   .Execute(QueryRequest::Select("R"))
                   .ValueOrDie();
  EXPECT_TRUE(old_r.table->schema().HasColumn("Address"));
  // A fresh pin sees the committed evolution.
  Snapshot fresh = serving.GetSnapshot();
  auto new_r = QueryEngine(fresh.store())
                   .Execute(QueryRequest::Select("R"))
                   .ValueOrDie();
  EXPECT_FALSE(new_r.table->schema().HasColumn("Address"));
  EXPECT_EQ(old_r.table->rows(), new_r.table->rows());
}

TEST(QueryEngine, PinnedSnapshotAnswersAfterTableDrop) {
  SnapshotCatalog serving;
  serving.Reset(MakeCatalogWithR());
  Snapshot pinned = serving.GetSnapshot();

  EvolutionEngine evolution(&serving);
  ASSERT_TRUE(evolution.Apply(Smo::DropTable("R")).ok());

  // The dropped table is gone from new pins but fully queryable — data
  // and all — through the old one.
  Snapshot fresh = serving.GetSnapshot();
  EXPECT_TRUE(QueryEngine(fresh.store())
                  .Execute(QueryRequest::Count("R"))
                  .status()
                  .IsKeyError());
  EXPECT_EQ(QueryEngine(pinned.store())
                .Execute(QueryRequest::Count("R", JonesExpr()))
                .ValueOrDie()
                .count,
            3u);
}

TEST(QueryEngine, SnapshotQueriesMatchQuiescedCatalog) {
  // The bit-identical contract: a request through a pinned root equals
  // the same request through a mutable Catalog rebuilt from that root.
  SnapshotCatalog serving;
  serving.Reset(MakeCatalogWithR());
  Snapshot snap = serving.GetSnapshot();
  Catalog quiesced = MaterializeCatalog(snap.root());

  QueryRequest select = QueryRequest::Select("R", {"Skill", "Employee"},
                                             JonesExpr(), "out");
  select.OrderBy("Skill");
  auto live = QueryEngine(snap.store()).Execute(select).ValueOrDie();
  auto still = QueryEngine(&quiesced).Execute(select).ValueOrDie();
  ASSERT_NE(live.table, nullptr);
  ASSERT_NE(still.table, nullptr);
  EXPECT_EQ(live.table->Materialize(), still.table->Materialize());
  EXPECT_EQ(live.ToString(), still.ToString());
}

// ---- Sorted-declared tables ------------------------------------------------

// CREATE TABLE ... SORTED once produced run-length-encoded columns that
// the query layer rejected ("predicates require a WAH-encoded column").
// A sorted-declared table now answers every query shape — COUNT, SELECT
// WHERE, GROUP BY, ORDER BY and JOIN on the sorted column — exactly like
// its unsorted-declared twin.
TEST(QueryEngine, SortedDeclaredTableAnswersLikeUnsortedTwin) {
  auto schema_of = [](const std::string& sql) {
    return ParseSmoStatement(sql).ValueOrDie().schema;
  };
  const Schema fact_sorted = schema_of(
      "CREATE TABLE R (L INT64 SORTED, V INT64, S STRING SORTED);");
  const Schema fact_plain =
      schema_of("CREATE TABLE R (L INT64, V INT64, S STRING);");
  const Schema dim_sorted =
      schema_of("CREATE TABLE D (L INT64 SORTED, name STRING);");
  const Schema dim_plain = schema_of("CREATE TABLE D (L INT64, name STRING);");
  ASSERT_TRUE(fact_sorted.column(0).sorted);
  ASSERT_TRUE(fact_sorted.column(2).sorted);
  ASSERT_FALSE(fact_plain.column(0).sorted);
  auto catalog_of = [](const Schema& fact, const Schema& dim) {
    std::vector<Row> fact_rows, dim_rows;
    for (int64_t r = 0; r < 3000; ++r) {
      fact_rows.push_back({Value(r / 30), Value(r % 7),
                           Value("s" + std::to_string(r / 500))});
    }
    for (int64_t l = 0; l < 100; l += 2) {
      dim_rows.push_back({Value(l), Value("n" + std::to_string(l))});
    }
    return ::cods::testing::CatalogOf(
        {MakeTable("R", fact, fact_rows), MakeTable("D", dim, dim_rows)});
  };
  Catalog sorted = catalog_of(fact_sorted, dim_sorted);
  Catalog plain = catalog_of(fact_plain, dim_plain);
  QueryEngine on_sorted(&sorted), on_plain(&plain);
  for (const char* sql : {
           "SELECT COUNT(*) FROM R;",
           "SELECT COUNT(*) FROM R WHERE L >= 10 AND L < 20;",
           "SELECT COUNT(*) FROM R WHERE S = 's3' OR L IN (1, 2, 99);",
           "SELECT L, V FROM R WHERE L = 7;",
           "SELECT * FROM R WHERE L BETWEEN 40 AND 42 AND NOT S = 's0';",
           "SELECT L, COUNT(*), SUM(V) FROM R GROUP BY L;",
           "SELECT S, MIN(L), MAX(L) FROM R WHERE V > 2 GROUP BY S;",
           "SELECT L, V FROM R WHERE V = 3 ORDER BY L DESC LIMIT 25;",
           "SELECT * FROM R ORDER BY S;",
           "SELECT * FROM R JOIN D ON R.L = D.L WHERE D.name = 'n8';",
           "SELECT R.V, D.name FROM R JOIN D ON R.L = D.L WHERE R.V = 1;",
       }) {
    const QueryRequest request = ParseStatement(sql).ValueOrDie().query;
    auto got = on_sorted.Execute(request);
    auto want = on_plain.Execute(request);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    EXPECT_EQ(got->verb, want->verb) << sql;
    EXPECT_EQ(got->count, want->count) << sql;
    EXPECT_EQ(got->groups, want->groups) << sql;
    ASSERT_EQ(got->table == nullptr, want->table == nullptr) << sql;
    if (got->table != nullptr) {
      // Same columns; only the SORTED declarations differ.
      EXPECT_TRUE(got->table->schema().SameLayout(want->table->schema()))
          << sql;
      EXPECT_EQ(got->table->Materialize(), want->table->Materialize()) << sql;
      EXPECT_TRUE(got->table->ValidateInvariants().ok()) << sql;
    }
  }
}

// ---- SORTED declarations on operator outputs -------------------------------

// Fails unless every column `table` declares SORTED is non-decreasing on
// the Value order; returns how many columns are declared SORTED.
size_t ExpectDeclaredSortedHolds(const Table& table, const std::string& what) {
  const std::vector<Row> rows = table.Materialize();
  size_t declared = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (!table.schema().column(c).sorted) continue;
    ++declared;
    for (size_t r = 1; r < rows.size(); ++r) {
      if (rows[r][c] < rows[r - 1][c]) {
        ADD_FAILURE() << what << ": SORTED column "
                      << table.schema().column(c).name << " drops at row "
                      << r;
        break;
      }
    }
  }
  return declared;
}

TEST(SortedDeclaration, HoldsOnEveryOutput) {
  // R(L SORTED, V, S SORTED) with L -> S; D(L SORTED, name) keyed by L.
  const Schema fact({{"L", DataType::kInt64, true},
                     {"V", DataType::kInt64, false},
                     {"S", DataType::kString, true}});
  const Schema dim({{"L", DataType::kInt64, true},
                    {"name", DataType::kString, false}},
                   {"L"});
  std::vector<Row> fact_rows, dim_rows;
  for (int64_t r = 0; r < 3000; ++r) {
    fact_rows.push_back(
        {Value(r / 30), Value(r % 7), Value("s" + std::to_string(r / 600))});
  }
  for (int64_t l = 0; l < 100; ++l) {
    dim_rows.push_back({Value(l), Value("n" + std::to_string(l % 9))});
  }
  auto r = MakeTable("R", fact, fact_rows);
  auto d = MakeTable("D", dim, dim_rows);
  ASSERT_EQ(ExpectDeclaredSortedHolds(*r, "R"), 2u);

  // Row subsequences keep every declaration.
  auto parts =
      PartitionTableOp(*r, "A", "B", "V", CompareOp::kLt, Value(int64_t{3}))
          .ValueOrDie();
  EXPECT_EQ(ExpectDeclaredSortedHolds(*parts.matching, "PARTITION"), 2u);
  EXPECT_EQ(ExpectDeclaredSortedHolds(*parts.rest, "PARTITION rest"), 2u);
  auto dec = CodsDecompose(*r, "RS", {"L", "V"}, {}, "RT", {"L", "S"}, {"L"})
                 .ValueOrDie();
  EXPECT_EQ(ExpectDeclaredSortedHolds(*dec.s, "DECOMPOSE reused"), 1u);
  EXPECT_EQ(ExpectDeclaredSortedHolds(*dec.t, "DECOMPOSE generated"), 2u);

  // MERGE keeps S's declarations on the key-foreign-key path and drops
  // T's; the general path clusters rows by join value and drops all.
  auto kfk = CodsMergeKeyFk(*dec.s, *dec.t, {"L"}, {}, "M").ValueOrDie();
  EXPECT_EQ(ExpectDeclaredSortedHolds(*kfk, "MERGE key-fk"), 1u);
  EXPECT_TRUE(kfk->schema().column(0).sorted);
  auto general =
      CodsMergeGeneral(*parts.rest, *d, {"L"}, {}, "G").ValueOrDie();
  EXPECT_EQ(ExpectDeclaredSortedHolds(*general, "MERGE general"), 0u);

  // UNION keeps a declaration only when a's last value <= b's first.
  auto low = PartitionTableOp(*r, "Lo", "Hi", "L", CompareOp::kLt,
                              Value(int64_t{50}))
                 .ValueOrDie();
  auto in_order = UnionTablesOp(*low.matching, *low.rest, "U").ValueOrDie();
  EXPECT_EQ(ExpectDeclaredSortedHolds(*in_order, "UNION in order"), 2u);
  auto reversed = UnionTablesOp(*low.rest, *low.matching, "U").ValueOrDie();
  EXPECT_EQ(ExpectDeclaredSortedHolds(*reversed, "UNION reversed"), 0u);
  auto with_empty =
      UnionTablesOp(*low.matching, *MakeEmptyTable("E", fact).ValueOrDie(),
                    "U")
          .ValueOrDie();
  EXPECT_EQ(ExpectDeclaredSortedHolds(*with_empty, "UNION empty"), 2u);

  // Queries: a projection keeps its declarations, ORDER BY keeps only an
  // ascending sort column's, JOIN keeps none.
  Catalog catalog = ::cods::testing::CatalogOf({r, d});
  QueryEngine engine(&catalog);
  const std::pair<const char*, size_t> queries[] = {
      {"SELECT L, S FROM R WHERE V = 3;", 2},
      {"SELECT * FROM R ORDER BY L;", 1},
      {"SELECT * FROM R ORDER BY L DESC;", 0},
      {"SELECT * FROM R ORDER BY S;", 1},
      {"SELECT * FROM R ORDER BY V;", 0},
      {"SELECT L, V FROM R WHERE V = 3 ORDER BY V LIMIT 25;", 0},
      {"SELECT * FROM R JOIN D ON R.L = D.L WHERE D.name = 'n8';", 0},
      {"SELECT * FROM D JOIN R ON D.L = R.L;", 0},
  };
  for (const auto& [sql, declared] : queries) {
    auto result = engine.Execute(ParseStatement(sql).ValueOrDie().query);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    ASSERT_NE(result->table, nullptr) << sql;
    EXPECT_EQ(ExpectDeclaredSortedHolds(*result->table, sql), declared)
        << sql;
  }
}

TEST(GroupBy, CountMatchesValueCounts) {
  // The sorted column's per-value counts, and GROUP BY COUNT(*) over it.
  auto r = ::cods::testing::SortedFdTable(1000, 10, /*declare_sorted=*/true);
  const Column& k = *r->column(0);
  auto groups =
      QueryEngine::GroupByRows(*r, "K", {AggregateSpec::Count()}, nullptr)
          .ValueOrDie();
  ASSERT_EQ(k.distinct_count(), 10u);
  ASSERT_EQ(groups.size(), 10u);
  uint64_t total = 0;
  for (Vid vid = 0; vid < k.distinct_count(); ++vid) {
    EXPECT_EQ(k.ValueCount(vid), 100u) << vid;
    EXPECT_EQ(groups[vid],
              (GroupRow{k.dict().value(vid), {Value(int64_t{100})}}));
    total += k.ValueCount(vid);
  }
  EXPECT_EQ(total, 1000u);
}

TEST(GroupBy, SumMatchesNaiveAggregation) {
  auto r = ::cods::testing::RandomFdTable(3000, 30, 5);
  auto sums = QueryEngine::GroupBySumRows(*r, "K", "V", nullptr).ValueOrDie();
  // Naive oracle over materialized rows.
  std::map<Value, double> expected;
  for (const Row& row : r->Materialize()) {
    expected[row[0]] += static_cast<double>(row[1].int64());
  }
  ASSERT_EQ(sums.size(), expected.size());
  for (const auto& [value, sum] : sums) {
    EXPECT_DOUBLE_EQ(sum, expected.at(value)) << value.ToString();
  }
}

TEST(GroupBy, SumRejectsStringMeasure) {
  auto r = Figure1TableR();
  EXPECT_TRUE(QueryEngine::GroupBySumRows(*r, "Employee", "Skill", nullptr)
                  .status()
                  .IsTypeError());
}

}  // namespace
}  // namespace cods
