// Tests for the composable predicate AST: construction, rendering,
// normalization (De Morgan push-down, comparison negation, same-kind
// flattening), and compressed-domain evaluation checked against a naive
// row-at-a-time oracle.

#include "query/expr.h"
#include "storage/value_compare.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "bitmap/wah_ops.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "server/admission.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;
using ::cods::testing::MakeTable;

// Row-at-a-time oracle for arbitrary trees (the slow path the AST
// replaces).
bool NaiveMatches(const Expr& e, const Row& row, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween: {
      size_t idx = schema.ColumnIndex(e.column).ValueOrDie();
      return e.LeafMatches(row[idx]);
    }
    case ExprKind::kNot:
      return !NaiveMatches(*e.children[0], row, schema);
    case ExprKind::kAnd:
      for (const ExprPtr& c : e.children) {
        if (!NaiveMatches(*c, row, schema)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const ExprPtr& c : e.children) {
        if (NaiveMatches(*c, row, schema)) return true;
      }
      return false;
  }
  return false;
}

void ExpectAgreesWithNaive(const Table& table, const ExprPtr& expr) {
  auto bm = EvalExpr(table, expr);
  ASSERT_TRUE(bm.ok()) << bm.status().ToString();
  std::vector<uint64_t> selected = bm->SetPositions();
  std::vector<Row> rows = table.Materialize();
  std::vector<uint64_t> naive;
  for (uint64_t r = 0; r < rows.size(); ++r) {
    if (NaiveMatches(*expr, rows[r], table.schema())) naive.push_back(r);
  }
  EXPECT_EQ(selected, naive) << expr->ToString();
  // The count-only path must agree with the materialized one.
  auto count = EvalExprCount(table, expr);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, naive.size()) << expr->ToString();
}

TEST(Expr, LeafKinds) {
  auto r = Figure1TableR();
  ExpectAgreesWithNaive(
      *r, Expr::Compare("Employee", CompareOp::kEq, Value("Jones")));
  ExpectAgreesWithNaive(
      *r, Expr::In("Employee", {Value("Ellis"), Value("Roberts")}));
  ExpectAgreesWithNaive(*r,
                        Expr::Between("Employee", Value("E"), Value("K")));
}

TEST(Expr, NestedBooleanStructure) {
  auto r = Figure1TableR();
  // a = 'x' AND (b > 3 OR NOT c IN (...)) — the acceptance shape.
  ExpectAgreesWithNaive(
      *r,
      Expr::And({Expr::Compare("Address", CompareOp::kEq,
                               Value("425 Grant Ave")),
                 Expr::Or({Expr::Compare("Skill", CompareOp::kGt,
                                         Value("Typing")),
                           Expr::Not(Expr::In(
                               "Employee",
                               {Value("Jones"), Value("Harrison")}))})}));
  // Deep alternation with double negation.
  ExpectAgreesWithNaive(
      *r, Expr::Not(Expr::Or(
              {Expr::Not(Expr::Compare("Employee", CompareOp::kNe,
                                       Value("Ellis"))),
               Expr::And({Expr::Compare("Skill", CompareOp::kLt,
                                        Value("Juggling")),
                          Expr::Not(Expr::Between("Address", Value("4"),
                                                  Value("5")))})})));
}

TEST(Expr, ToStringRendersGrammar) {
  ExprPtr e = Expr::And(
      {Expr::Compare("a", CompareOp::kEq, Value("x")),
       Expr::Or({Expr::Compare("b", CompareOp::kGt, Value(int64_t{3})),
                 Expr::Not(Expr::In("c", {Value(int64_t{1}),
                                          Value(int64_t{2})}))})});
  EXPECT_EQ(e->ToString(), "a = 'x' AND (b > 3 OR NOT c IN (1, 2))");
  EXPECT_EQ(Expr::Between("x", Value(1.5), Value(int64_t{9}))->ToString(),
            "x BETWEEN 1.5 AND 9");
  EXPECT_EQ(Expr::Not(Expr::And({Expr::Compare("a", CompareOp::kLe,
                                               Value(int64_t{0})),
                                 Expr::Compare("b", CompareOp::kGe,
                                               Value(int64_t{0}))}))
                ->ToString(),
            "NOT (a <= 0 AND b >= 0)");
}

TEST(Expr, NormalizePushesNotThroughDeMorgan) {
  // NOT (a = 1 AND b = 2)  =>  a != 1 OR b != 2 (comparisons absorb).
  ExprPtr e = Expr::Not(
      Expr::And({Expr::Compare("a", CompareOp::kEq, Value(int64_t{1})),
                 Expr::Compare("b", CompareOp::kEq, Value(int64_t{2}))}));
  ExprPtr n = NormalizeExpr(e);
  EXPECT_EQ(n->ToString(), "a != 1 OR b != 2");
  // Double NOT cancels.
  EXPECT_EQ(NormalizeExpr(Expr::Not(Expr::Not(
                              Expr::Compare("a", CompareOp::kLt,
                                            Value(int64_t{5})))))
                ->ToString(),
            "a < 5");
  // NOT over IN survives as a residual complement above the leaf.
  ExprPtr not_in = NormalizeExpr(
      Expr::Not(Expr::In("c", {Value(int64_t{1})})));
  EXPECT_EQ(not_in->kind, ExprKind::kNot);
  EXPECT_EQ(not_in->children[0]->kind, ExprKind::kIn);
}

TEST(Expr, NormalizeFlattensSameKindChildren) {
  // (a AND (b AND c)) AND d  =>  one 4-way AND feeding one k-way kernel.
  auto leaf = [](const char* col) {
    return Expr::Compare(col, CompareOp::kEq, Value(int64_t{0}));
  };
  ExprPtr nested = Expr::And(
      {Expr::And({leaf("a"), Expr::And({leaf("b"), leaf("c")})}), leaf("d")});
  ExprPtr flat = NormalizeExpr(nested);
  EXPECT_EQ(flat->kind, ExprKind::kAnd);
  EXPECT_EQ(flat->children.size(), 4u);
  // De Morgan exposes flattening across the flipped node too:
  // NOT (a OR (b OR c)) => AND of three negated leaves.
  ExprPtr flipped = NormalizeExpr(
      Expr::Not(Expr::Or({leaf("a"), Expr::Or({leaf("b"), leaf("c")})})));
  EXPECT_EQ(flipped->kind, ExprKind::kAnd);
  EXPECT_EQ(flipped->children.size(), 3u);
}

TEST(Expr, NormalizationPreservesSemantics) {
  auto r = Figure1TableR();
  ExprPtr e = Expr::Not(Expr::Or(
      {Expr::Compare("Employee", CompareOp::kEq, Value("Jones")),
       Expr::Not(Expr::And(
           {Expr::In("Skill", {Value("Alchemy"), Value("Juggling")}),
            Expr::Compare("Address", CompareOp::kGt, Value("5"))}))}));
  auto ref = EvalExpr(*r, e);
  auto norm = EvalExpr(*r, NormalizeExpr(e));
  ASSERT_TRUE(ref.ok() && norm.ok());
  EXPECT_TRUE(*ref == *norm);  // code-word identical (canonical form)
}

TEST(Expr, ExprEqualsComparesStructure) {
  ExprPtr a = Expr::And({Expr::Compare("a", CompareOp::kEq, Value("x")),
                         Expr::In("b", {Value(int64_t{1})})});
  ExprPtr b = Expr::And({Expr::Compare("a", CompareOp::kEq, Value("x")),
                         Expr::In("b", {Value(int64_t{1})})});
  ExprPtr c = Expr::And({Expr::Compare("a", CompareOp::kNe, Value("x")),
                         Expr::In("b", {Value(int64_t{1})})});
  EXPECT_TRUE(ExprEquals(*a, *b));
  EXPECT_FALSE(ExprEquals(*a, *c));
}

TEST(Expr, UnknownColumnErrorsAtBindTime) {
  auto r = Figure1TableR();
  auto result = EvalExpr(
      *r, Expr::And({Expr::Compare("Employee", CompareOp::kEq,
                                   Value("Jones")),
                     Expr::Compare("Nope", CompareOp::kEq, Value("x"))}));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("Nope"), std::string::npos);
}

TEST(Expr, ComparisonNegationExactAcrossNumericTypes) {
  // EvalCompare derives every operator from the total Value order, so
  // int64 3 vs double 3.0 behaves numerically and NOT-lowering through
  // NegateCompareOp is exact even for cross-type literals.
  Value i3(int64_t{3}), d3(3.0);
  EXPECT_TRUE(EvalCompare(i3, CompareOp::kEq, d3));
  EXPECT_TRUE(EvalCompare(i3, CompareOp::kLe, d3));
  EXPECT_TRUE(EvalCompare(i3, CompareOp::kGe, d3));
  EXPECT_FALSE(EvalCompare(i3, CompareOp::kNe, d3));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const Value& lhs : {i3, d3, Value(2.5), Value(int64_t{4})}) {
      EXPECT_EQ(EvalCompare(lhs, NegateCompareOp(op), d3),
                !EvalCompare(lhs, op, d3))
          << CompareOpToString(op) << " on " << lhs.ToString();
    }
  }
  // End to end: NOT K < 3.0 on an int64 column keeps K = 3.
  Schema schema({{"K", DataType::kInt64, false}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back({Value(i)});
  auto t = MakeTable("T", schema, rows);
  auto count = EvalExprCount(
      *t, Expr::Not(Expr::Compare("K", CompareOp::kLt, Value(3.0))));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);  // 3, 4, 5
}

TEST(Expr, NanOrdersTotallyAndEqualsOnlyItself) {
  // Value's order places NaN after every real number (IEEE `<` alone
  // would make NaN order-equal to everything and break both sorting
  // and complement lowering).
  const Value nan(std::nan(""));
  const Value five(5.0);
  EXPECT_FALSE(EvalCompare(nan, CompareOp::kEq, five));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kNe, five));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kGt, five));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kGt, Value(int64_t{5})));
  EXPECT_TRUE(EvalCompare(nan, CompareOp::kEq, nan));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_EQ(EvalCompare(nan, NegateCompareOp(op), five),
              !EvalCompare(nan, op, five))
        << CompareOpToString(op);
  }
}

TEST(Expr, NotIsExactComplement) {
  auto r = Figure1TableR();
  ExprPtr inner = Expr::In("Employee", {Value("Jones"), Value("Ellis")});
  auto pos = EvalExpr(*r, inner);
  auto neg = EvalExpr(*r, Expr::Not(inner));
  ASSERT_TRUE(pos.ok() && neg.ok());
  EXPECT_EQ(pos->CountOnes() + neg->CountOnes(), r->rows());
  // Bit-level: the union is all rows, the intersection empty.
  EXPECT_EQ(WahAndCount(*pos, *neg), 0u);
}

// Property sweep on generated data: random-ish nested trees vs naive.
TEST(Expr, PropertySweepOnGeneratedTable) {
  WorkloadSpec spec;
  spec.num_rows = 5000;
  spec.num_distinct = 200;
  spec.payload_distinct = 40;
  spec.dependent_distinct = 12;
  auto r = GenerateEvolutionTable(spec).ValueOrDie();
  for (int64_t pivot : {int64_t{0}, int64_t{17}, int64_t{100}, int64_t{5000}}) {
    ExprPtr e = Expr::Or(
        {Expr::And({Expr::Compare(kKeyColumn, CompareOp::kLt, Value(pivot)),
                    Expr::Not(Expr::Compare(kPayloadColumn, CompareOp::kGe,
                                            Value(int64_t{20})))}),
         Expr::Between(kDependentColumn, Value(int64_t{3}),
                       Value(int64_t{7})),
         Expr::Not(Expr::In(kPayloadColumn,
                            {Value(int64_t{1}), Value(int64_t{2}),
                             Value(pivot)}))});
    ExpectAgreesWithNaive(*r, e);
  }
}

// Values on which a hash probe and EvalCompare's order-equivalence
// could part ways: NaN, signed zeros, int64 extremes, 2^53 +- 1 as
// int64 and as double (2^53 + 1 is not a double), NULL, empty strings
// and quotes.
std::vector<Value> HostileValues() {
  constexpr int64_t k53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {Value(nan),
          Value(-nan),
          Value(0.0),
          Value(-0.0),
          Value(1.5),
          Value(static_cast<double>(k53 - 1)),
          Value(static_cast<double>(k53)),
          Value(static_cast<double>(k53 + 1)),
          Value(3.0),
          Value(std::ldexp(1.0, 63)),  // INT64_MAX as a double
          Value(std::numeric_limits<int64_t>::min()),
          Value(std::numeric_limits<int64_t>::max()),
          Value(int64_t{0}),
          Value(int64_t{3}),
          Value(k53 - 1),
          Value(k53),
          Value(k53 + 1),
          Value(),
          Value(""),
          Value("'"),
          Value("it''s"),
          Value("x")};
}

// One column whose dictionary holds `values` (every NaN its own entry,
// so repeated NaNs leave duplicate entries) over `rows` rows with
// seeded random value ids.
std::shared_ptr<const Column> HostileColumn(DataType type,
                                            const std::vector<Value>& values,
                                            uint64_t rows, Rng& rng) {
  Dictionary dict;
  for (const Value& v : values) dict.GetOrInsert(v);
  std::vector<Vid> vids(rows);
  for (Vid& vid : vids) {
    vid = static_cast<Vid>(rng.Uniform(0, dict.size() - 1));
  }
  return Column::FromVids(type, std::move(dict), vids);
}

// A random =, !=, IN (with repeats) or NOT IN leaf over `column`.
ExprPtr RandomPointLeaf(const std::string& column,
                        const std::vector<Value>& pool, Rng& rng) {
  auto pick = [&] { return pool[rng.Uniform(0, pool.size() - 1)]; };
  switch (rng.Uniform(0, 3)) {
    case 0:
      return Expr::Compare(column, CompareOp::kEq, pick());
    case 1:
      return Expr::Compare(column, CompareOp::kNe, pick());
    default: {
      std::vector<Value> in;
      for (int64_t n = rng.Uniform(1, 4); n > 0; --n) {
        in.push_back(pick());
        if (rng.NextBool(0.3)) in.push_back(in.back());
      }
      ExprPtr leaf = Expr::In(column, std::move(in));
      return rng.NextBool() ? Expr::Not(leaf) : leaf;
    }
  }
}

// Differential check of the point-leaf resolver: on hostile dictionaries
// EvalExpr, EvalExprCount and the admission estimate must equal a
// row-by-row LeafMatches oracle at every thread count, whether the leaf
// took the hash probe or the dictionary-scan fallback.
TEST(Expr, PointLeavesMatchRowOracleOnHostileDictionaries) {
  const std::vector<Value> pool = HostileValues();
  std::vector<Value> ints, doubles, strings;
  for (const Value& v : pool) {  // NULL may appear in every column
    if (v.is_int64() || v.is_null()) ints.push_back(v);
    if (v.is_double() || v.is_null()) doubles.push_back(v);
    if (v.is_string() || v.is_null()) strings.push_back(v);
  }
  Rng rng(20260412);
  uint64_t probed = 0, scanned = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const uint64_t rows = static_cast<uint64_t>(rng.Uniform(1, 300));
    // Each column draws a random subset of its kinds' values, in random
    // order; M mixes int64 and double entries in one dictionary.
    auto sample = [&](const std::vector<Value>& from) {
      std::vector<Value> out;
      for (uint64_t i : rng.Permutation(from.size())) {
        if (rng.NextBool(0.6)) out.push_back(from[i]);
      }
      if (out.empty()) out.push_back(from[0]);
      return out;
    };
    std::vector<Value> mixed = sample(ints);
    for (const Value& v : sample(doubles)) mixed.push_back(v);
    std::vector<std::pair<ColumnSpec, std::vector<Value>>> specs = {
        {{"I", DataType::kInt64, false}, sample(ints)},
        {{"D", DataType::kDouble, false}, sample(doubles)},
        {{"M", DataType::kDouble, false}, mixed},
        {{"S", DataType::kString, false}, sample(strings)}};
    std::vector<ColumnSpec> columns;
    std::vector<std::shared_ptr<const Column>> data;
    for (const auto& [spec, values] : specs) {
      columns.push_back(spec);
      data.push_back(HostileColumn(spec.type, values, rows, rng));
    }
    auto table = Table::Make("H", Schema(columns), data, rows).ValueOrDie();

    for (int q = 0; q < 12; ++q) {
      const size_t c = static_cast<size_t>(rng.Uniform(0, 3));
      const Column& column = *data[c];
      ExprPtr leaf = RandomPointLeaf(columns[c].name, pool, rng);
      const Expr& inner = leaf->kind == ExprKind::kNot ? *leaf->children[0]
                                                       : *leaf;
      std::vector<Value> literals = inner.in_values;
      if (inner.kind == ExprKind::kCompare) literals = {inner.literal};
      bool probes = true;
      for (const Value& v : literals) {
        probes = probes && column.dict().LookupIsOrderExact(v);
      }
      ++(probes ? probed : scanned);

      std::vector<uint64_t> oracle;
      for (uint64_t r = 0; r < rows; ++r) {
        bool match = inner.LeafMatches(column.GetValue(r));
        if (match != (leaf->kind == ExprKind::kNot)) oracle.push_back(r);
      }
      // A second, independent leaf exercises the parallel per-leaf
      // evaluation under AND/OR.
      const size_t c2 = static_cast<size_t>(rng.Uniform(0, 3));
      ExprPtr other = RandomPointLeaf(columns[c2].name, pool, rng);
      ExprPtr both = Expr::Or({leaf, other});
      const Schema other_schema({columns[c2]});
      std::vector<uint64_t> both_oracle;
      for (uint64_t r = 0; r < rows; ++r) {
        if (std::binary_search(oracle.begin(), oracle.end(), r) ||
            NaiveMatches(*other, {data[c2]->GetValue(r)}, other_schema)) {
          both_oracle.push_back(r);
        }
      }
      SCOPED_TRACE(leaf->ToString() + " on " +
                   std::to_string(column.distinct_count()) + " entries");
      EXPECT_EQ(server::EstimateExprRows(*table, NormalizeExpr(leaf)),
                oracle.size());
      for (int threads : {1, 2, 8}) {
        ExecContext ctx(threads);
        auto bm = EvalExpr(*table, leaf, &ctx);
        ASSERT_TRUE(bm.ok()) << bm.status().ToString();
        EXPECT_EQ(bm->SetPositions(), oracle) << threads << " threads";
        auto count = EvalExprCount(*table, leaf, &ctx);
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        EXPECT_EQ(*count, oracle.size()) << threads << " threads";
        auto both_bm = EvalExpr(*table, both, &ctx);
        ASSERT_TRUE(both_bm.ok()) << both_bm.status().ToString();
        EXPECT_EQ(both_bm->SetPositions(), both_oracle)
            << both->ToString() << " at " << threads << " threads";
        auto both_count = EvalExprCount(*table, both, &ctx);
        ASSERT_TRUE(both_count.ok());
        EXPECT_EQ(*both_count, both_oracle.size());
      }
    }
  }
  // Both resolver paths must have been exercised, many times over.
  EXPECT_GE(probed, 50u);
  EXPECT_GE(scanned, 50u);
}

// The cases the probe must hand to the scan, spelled out: each would
// answer wrongly through the hash index alone.
TEST(Expr, ProbeFallsBackWhereHashAndOrderDisagree) {
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  Dictionary ints;
  ints.GetOrInsert(Value(int64_t{3}));
  EXPECT_TRUE(ints.LookupIsOrderExact(Value(int64_t{3})));
  EXPECT_FALSE(ints.LookupIsOrderExact(Value(3.0)));  // 3.0 = 3
  EXPECT_TRUE(ints.LookupIsOrderExact(Value("3")));
  Dictionary doubles;
  doubles.GetOrInsert(Value(-0.0));
  EXPECT_TRUE(doubles.LookupIsOrderExact(Value(0.0)));  // finds -0.0
  EXPECT_EQ(doubles.Lookup(Value(0.0)), std::optional<Vid>(0));
  EXPECT_FALSE(doubles.LookupIsOrderExact(Value(int64_t{0})));
  EXPECT_TRUE(doubles.LookupIsOrderExact(nan));  // no NaN held: no match
  doubles.GetOrInsert(nan);
  doubles.GetOrInsert(nan);  // NaN is never variant-equal: a new entry
  EXPECT_EQ(doubles.size(), 3u);
  EXPECT_FALSE(doubles.LookupIsOrderExact(nan));
  EXPECT_TRUE(doubles.LookupIsOrderExact(Value(1.0)));

  // End to end: NaN = NaN matches both NaN entries' rows.
  Schema schema({{"D", DataType::kDouble, false}});
  auto t = MakeTable("T", schema,
                     {{Value(nan)}, {Value(-0.0)}, {Value(nan)}, {Value(2.0)}});
  auto count = [&](ExprPtr e) { return EvalExprCount(*t, e).ValueOrDie(); };
  EXPECT_EQ(count(Expr::Compare("D", CompareOp::kEq, nan)), 2u);
  EXPECT_EQ(count(Expr::Compare("D", CompareOp::kNe, nan)), 2u);
  EXPECT_EQ(count(Expr::In("D", {Value(0.0), Value(-0.0), Value(0.0)})), 1u);
  EXPECT_EQ(count(Expr::Compare("D", CompareOp::kEq, Value(int64_t{2}))), 1u);
  EXPECT_EQ(count(Expr::Not(Expr::In("D", {nan, Value(int64_t{2})}))), 1u);
}

}  // namespace
}  // namespace cods
