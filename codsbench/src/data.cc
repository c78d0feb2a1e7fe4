#include "data.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "query/row_executor.h"
#include "rowstore/row_table.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "smo/parser.h"

namespace codsbench {

using cods::DataType;
using cods::Row;
using cods::Value;

namespace {

std::shared_ptr<const cods::Column> IntColumn(const std::vector<int64_t>& vals,
                                              uint64_t distinct) {
  cods::Dictionary dict;
  for (uint64_t i = 0; i < distinct; ++i) {
    dict.GetOrInsert(Value(static_cast<int64_t>(i)));
  }
  std::vector<cods::Vid> vids(vals.begin(), vals.end());
  return cods::Column::FromVids(DataType::kInt64, std::move(dict), vids);
}

std::string FormatNumber(const Value& v) {
  if (v.is_int64()) return std::to_string(v.int64());
  if (v.is_double()) {
    const double d = v.dbl();
    if (std::nearbyint(d) == d && std::fabs(d) < 9.0e15) {
      return std::to_string(static_cast<int64_t>(d));
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", d);
    return buf;
  }
  if (v.is_null()) return "NULL";
  return v.str();
}

std::string JoinRow(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += '|';
    out += FormatNumber(row[i]);
  }
  return out;
}

Row GroupRowOf(const cods::GroupRow& g) {
  Row row{g.group};
  row.insert(row.end(), g.aggregates.begin(), g.aggregates.end());
  return row;
}

int64_t HashKey(int64_t k) {
  return static_cast<int64_t>((static_cast<uint64_t>(k) * 2654435761u) >> 7);
}

}  // namespace

FactData GenerateFact(const FactSpec& spec, uint64_t seed) {
  CODS_CHECK(spec.rows >= spec.distinct_k && spec.distinct_k > 0);
  FactData d;
  d.spec = spec;
  const size_t n = spec.rows;
  d.k.resize(n);
  d.v.resize(n);
  d.l.resize(n);
  d.p.resize(n);
  cods::Rng rng(seed);
  const int64_t dk = static_cast<int64_t>(spec.distinct_k);
  for (size_t i = 0; i < n; ++i) {
    const int64_t key = i < spec.distinct_k
                            ? static_cast<int64_t>(i)
                            : rng.Uniform(0, dk - 1);
    d.k[i] = key;
    d.v[i] = rng.Uniform(0, static_cast<int64_t>(spec.distinct_v) - 1);
    d.l[i] = static_cast<int64_t>(i * spec.distinct_l / n);
    d.p[i] = HashKey(key) % static_cast<int64_t>(spec.distinct_p);
  }
  return d;
}

cods::Schema FactSchema() {
  return cods::Schema({cods::ColumnSpec{"K", DataType::kInt64, false},
                       cods::ColumnSpec{"V", DataType::kInt64, false},
                       cods::ColumnSpec{"L", DataType::kInt64, false},
                       cods::ColumnSpec{"P", DataType::kInt64, false}});
}

std::shared_ptr<const cods::Table> BuildFactTable(const FactData& d) {
  const FactSpec& spec = d.spec;
  auto table = cods::Table::Make(
      spec.name, FactSchema(),
      {IntColumn(d.k, spec.distinct_k), IntColumn(d.v, spec.distinct_v),
       IntColumn(d.l, spec.distinct_l), IntColumn(d.p, spec.distinct_p)},
      spec.rows);
  CODS_CHECK(table.ok()) << table.status().ToString();
  return std::move(table).ValueOrDie();
}

std::shared_ptr<const cods::Table> GenerateDim() {
  std::vector<int64_t> keys(kDimKeys);
  std::vector<int64_t> tiers(kDimKeys);
  for (int64_t k = 0; k < kDimKeys; ++k) {
    keys[static_cast<size_t>(k)] = k;
    tiers[static_cast<size_t>(k)] = k % kDimTiers;
  }
  cods::Schema schema({cods::ColumnSpec{"K", DataType::kInt64, false},
                       cods::ColumnSpec{"tier", DataType::kInt64, false}},
                      {"K"});
  auto table = cods::Table::Make(
      "D", schema,
      {IntColumn(keys, kDimKeys), IntColumn(tiers, kDimTiers)},
      static_cast<uint64_t>(kDimKeys));
  CODS_CHECK(table.ok()) << table.status().ToString();
  return std::move(table).ValueOrDie();
}

uint64_t RawBytes(const cods::Table& table) {
  return table.rows() * table.num_columns() * 8;
}

// ---- Answers --------------------------------------------------------------

std::string CanonicalCount(uint64_t n) { return "count=" + std::to_string(n); }

std::string CanonicalRows(const std::vector<Row>& rows) {
  std::string out = "rows=" + std::to_string(rows.size()) + ";";
  for (const Row& r : rows) out += JoinRow(r) + ";";
  return out;
}

std::string CanonicalGroups(std::vector<Row> groups) {
  // Column 1 is COUNT(*) in every GROUP BY the benchmark sends.
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const Row& r) {
                                return r.size() > 1 &&
                                       FormatNumber(r[1]) == "0";
                              }),
               groups.end());
  std::sort(groups.begin(), groups.end(),
            [](const Row& a, const Row& b) { return a[0] < b[0]; });
  std::string out = "groups=" + std::to_string(groups.size()) + ";";
  for (const Row& r : groups) out += JoinRow(r) + ";";
  return out;
}

std::string CanonicalWire(const cods::server::WireResponse& r) {
  using cods::server::FrameType;
  switch (r.type) {
    case FrameType::kResultCount:
      return CanonicalCount(r.count);
    case FrameType::kResultTable:
      return CanonicalRows(r.rows);
    case FrameType::kResultGroups:
      return CanonicalGroups(r.group_rows);
    default:
      return "unexpected " + cods::server::FormatWireResponse(r);
  }
}

std::string CanonicalResult(const cods::QueryResult& r) {
  switch (r.verb) {
    case cods::QueryRequest::Verb::kCount:
      return CanonicalCount(r.count);
    case cods::QueryRequest::Verb::kSelect:
      return CanonicalRows(r.table->Materialize());
    case cods::QueryRequest::Verb::kGroupBy: {
      std::vector<Row> rows;
      rows.reserve(r.groups.size());
      for (const cods::GroupRow& g : r.groups) rows.push_back(GroupRowOf(g));
      return CanonicalGroups(std::move(rows));
    }
  }
  return "unknown verb";
}

// ---- Reader statements ----------------------------------------------------

namespace {

// Template parameters, drawn once per pool from the seed.
struct RangeT {
  int64_t v_lo, v_hi, k_lt, l_lt;
  bool Match(const Row& r) const {
    const int64_t k = r[0].int64(), v = r[1].int64(), l = r[2].int64();
    return ((v >= v_lo && v <= v_hi) || k < k_lt) && !(l < l_lt);
  }
};
struct TopNT {
  int64_t key, v_ge;
};
struct GroupT {
  int64_t k_lt;
};

struct GroupAcc {
  int64_t count = 0;
  int64_t sum_v = 0;
  int64_t min_v = INT64_MAX;
  int64_t max_v = INT64_MIN;
};

}  // namespace

QueryPool QueryPool::Build(const FactData& r,
                           const std::shared_ptr<const cods::Table>& d,
                           uint64_t seed) {
  QueryPool pool;
  pool.distinct_k_ = r.spec.distinct_k;
  cods::Rng rng(seed ^ 0x5eedf00dULL);
  const int64_t dk = static_cast<int64_t>(r.spec.distinct_k);
  const int64_t dv = static_cast<int64_t>(r.spec.distinct_v);
  const int64_t dl = static_cast<int64_t>(r.spec.distinct_l);

  std::vector<RangeT> ranges;
  std::vector<TopNT> tops;
  std::vector<GroupT> groups;
  // Parameters vary by seed but keep each template's cost nearly fixed,
  // so runs with different seeds do the same amount of work.
  for (int i = 0; i < kTemplatesPerKind; ++i) {
    RangeT rt;
    rt.v_lo = rng.Uniform(0, dv - 4);
    rt.v_hi = rt.v_lo + 3;
    rt.k_lt = rng.Uniform(dk / 50, dk / 40);
    rt.l_lt = rng.Uniform(dl / 4, dl / 2);
    ranges.push_back(rt);
    tops.push_back(TopNT{rng.Uniform(0, dk - 1), rng.Uniform(dv / 3, dv / 2)});
    groups.push_back(GroupT{rng.Uniform(dk / 500, dk / 400)});
  }
  for (const RangeT& t : ranges) {
    pool.texts_[static_cast<int>(QueryKind::kRange)].push_back(
        "SELECT COUNT(*) FROM R WHERE (V BETWEEN " + std::to_string(t.v_lo) +
        " AND " + std::to_string(t.v_hi) + " OR K < " +
        std::to_string(t.k_lt) + ") AND NOT L < " + std::to_string(t.l_lt) +
        ";");
  }
  for (const TopNT& t : tops) {
    pool.texts_[static_cast<int>(QueryKind::kTopN)].push_back(
        "SELECT V, L FROM R WHERE K = " + std::to_string(t.key) +
        " AND V >= " + std::to_string(t.v_ge) + " ORDER BY L DESC LIMIT 10;");
  }
  for (const GroupT& t : groups) {
    pool.texts_[static_cast<int>(QueryKind::kGroup)].push_back(
        "SELECT P, COUNT(*), SUM(V), MIN(V), MAX(V) FROM R WHERE K < " +
        std::to_string(t.k_lt) + " GROUP BY P;");
  }
  for (int i = 0; i < kTemplatesPerKind; ++i) {
    pool.texts_[static_cast<int>(QueryKind::kJoin)].push_back(
        "SELECT COUNT(*) FROM R JOIN D ON R.K = D.K WHERE D.tier = " +
        std::to_string(i % kDimTiers) + (i < kDimTiers ? "" : " AND R.V < 16") +
        ";");
  }

  // The oracle: a row-store copy of the generated rows, one scan.
  cods::RowTable heap("R", FactSchema());
  for (size_t i = 0; i < r.k.size(); ++i) {
    auto rid = heap.Insert(Row{Value(r.k[i]), Value(r.v[i]), Value(r.l[i]),
                               Value(r.p[i])});
    CODS_CHECK(rid.ok()) << rid.status().ToString();
  }
  std::vector<uint64_t> key_counts(r.spec.distinct_k, 0);
  std::vector<uint64_t> range_counts(ranges.size(), 0);
  std::vector<std::vector<Row>> top_rows(tops.size());
  std::vector<std::map<int64_t, GroupAcc>> group_accs(groups.size());
  heap.Scan([&](cods::RowId, const Row& row) {
    const int64_t k = row[0].int64();
    ++key_counts[static_cast<size_t>(k)];
    for (size_t t = 0; t < ranges.size(); ++t) {
      if (ranges[t].Match(row)) ++range_counts[t];
    }
    for (size_t t = 0; t < tops.size(); ++t) {
      if (k == tops[t].key && row[1].int64() >= tops[t].v_ge) {
        top_rows[t].push_back(Row{row[1], row[2]});
      }
    }
    for (size_t t = 0; t < groups.size(); ++t) {
      if (k >= groups[t].k_lt) continue;
      GroupAcc& acc = group_accs[t][row[3].int64()];
      ++acc.count;
      acc.sum_v += row[1].int64();
      acc.min_v = std::min(acc.min_v, row[1].int64());
      acc.max_v = std::max(acc.max_v, row[1].int64());
    }
  });
  pool.point_answers_.reserve(key_counts.size());
  for (uint64_t c : key_counts) {
    pool.point_answers_.push_back(CanonicalCount(c));
  }
  for (uint64_t c : range_counts) {
    pool.answers_[static_cast<int>(QueryKind::kRange)].push_back(
        CanonicalCount(c));
  }
  for (std::vector<Row>& rows : top_rows) {
    std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a[1].int64() > b[1].int64();
    });
    if (rows.size() > 10) rows.resize(10);
    pool.answers_[static_cast<int>(QueryKind::kTopN)].push_back(
        CanonicalRows(rows));
  }
  for (const auto& accs : group_accs) {
    std::vector<Row> rows;
    for (const auto& [p, acc] : accs) {
      rows.push_back(Row{Value(p), Value(acc.count), Value(acc.sum_v),
                         Value(acc.min_v), Value(acc.max_v)});
    }
    pool.answers_[static_cast<int>(QueryKind::kGroup)].push_back(
        CanonicalGroups(std::move(rows)));
  }

  // R JOIN D through the row executor's hash join, then per-template
  // filters over the joined rows (K, V, L, P, tier).
  cods::RowTable dim("D", d->schema());
  for (const Row& row : d->Materialize()) {
    CODS_CHECK(dim.Insert(row).ok());
  }
  auto joined = cods::HashJoinRows(heap, dim, {"K"}, {}, "RD");
  CODS_CHECK(joined.ok()) << joined.status().ToString();
  std::vector<uint64_t> join_counts(kTemplatesPerKind, 0);
  joined.ValueOrDie()->Scan([&](cods::RowId, const Row& row) {
    const int64_t tier = row[4].int64();
    for (int i = 0; i < kTemplatesPerKind; ++i) {
      if (tier != i % kDimTiers) continue;
      if (i >= kDimTiers && !(row[1].int64() < 16)) continue;
      ++join_counts[static_cast<size_t>(i)];
    }
  });
  for (uint64_t c : join_counts) {
    pool.answers_[static_cast<int>(QueryKind::kJoin)].push_back(
        CanonicalCount(c));
  }
  return pool;
}

std::string QueryPool::Text(const QueryRef& q) const {
  if (q.kind == QueryKind::kPoint) {
    return "SELECT COUNT(*) FROM R WHERE K = " + std::to_string(q.arg) + ";";
  }
  return texts_[static_cast<int>(q.kind)][static_cast<size_t>(q.arg)];
}

const std::string& QueryPool::Expected(const QueryRef& q) const {
  if (q.kind == QueryKind::kPoint) {
    return point_answers_[static_cast<size_t>(q.arg)];
  }
  return answers_[static_cast<int>(q.kind)][static_cast<size_t>(q.arg)];
}

QueryRef QueryPool::Draw(cods::Rng& rng, uint64_t seq) const {
  // Tail statements rotate through every kind and template in turn, so
  // equally long streams do the same heavy work whatever the seed.
  QueryRef q;
  if (seq % kTailEvery == kTailEvery - 1) {
    const uint64_t tail = seq / kTailEvery;
    q.kind = static_cast<QueryKind>(1 + tail % (kNumQueryKinds - 1));
    q.arg = static_cast<int64_t>((tail / (kNumQueryKinds - 1)) %
                                 kTemplatesPerKind);
    return q;
  }
  q.kind = QueryKind::kPoint;
  q.arg = rng.Uniform(0, static_cast<int64_t>(distinct_k_) - 1);
  return q;
}

void QueryPool::InjectWrongPointAnswerForTest(int64_t key) {
  std::string& a = point_answers_[static_cast<size_t>(key)];
  a = CanonicalCount(std::stoull(a.substr(6)) + 1);
}

// ---- The DBA's evolution cycle -------------------------------------------

std::vector<CycleScript> EvolutionCycle(const FactSpec& t, uint64_t cycle) {
  const std::string& n = t.name;
  const std::string s = n + "_s", u = n + "_t", a = n + "_old", b = n + "_new";
  // The partition point walks through the load dates, cycle by cycle.
  const uint64_t cut = 1 + (cycle * 97) % (t.distinct_l - 1);
  std::vector<CycleScript> out;
  out.push_back({CycleScript::Kind::kDecompose,
                 {"DECOMPOSE TABLE " + n + " INTO " + s + "(K, V, L), " + u +
                  "(K, P) KEY(K);"}});
  out.push_back({CycleScript::Kind::kMerge,
                 {"MERGE TABLES " + s + ", " + u + " INTO " + n + " ON (K);"}});
  out.push_back({CycleScript::Kind::kPartition,
                 {"PARTITION TABLE " + n + " INTO " + a + ", " + b +
                  " WHERE L < " + std::to_string(cut) + ";"}});
  CycleScript ops{CycleScript::Kind::kColumnOps, {}};
  for (const std::string& p : {a, b}) {
    ops.statements.push_back("ADD COLUMN X INT64 TO " + p + " DEFAULT " +
                             std::to_string(cycle) + ";");
    ops.statements.push_back("RENAME COLUMN X TO Y IN " + p + ";");
    ops.statements.push_back("DROP COLUMN Y FROM " + p + ";");
  }
  out.push_back(std::move(ops));
  out.push_back({CycleScript::Kind::kUnion,
                 {"UNION TABLES " + a + ", " + b + " INTO " + n + ";"}});
  return out;
}

FactReference BuildFactReference(const FactData& data) {
  FactReference ref;
  ref.column_names = {"K", "V", "L", "P"};
  const std::vector<const std::vector<int64_t>*> cols = {&data.k, &data.v,
                                                         &data.l, &data.p};
  for (size_t c = 0; c < cols.size(); ++c) {
    std::map<int64_t, int64_t> counts;
    for (int64_t x : *cols[c]) ++counts[x];
    std::vector<Row> rows;
    rows.reserve(counts.size());
    for (const auto& [value, n] : counts) {
      rows.push_back(Row{Value(value), Value(n)});
    }
    ref.verify_sql.push_back("SELECT " + ref.column_names[c] +
                             ", COUNT(*) FROM " + data.spec.name +
                             " GROUP BY " + ref.column_names[c] + ";");
    ref.verify_expected.push_back(CanonicalGroups(std::move(rows)));
  }
  // Point counts on keys spread over the domain: the bulk of the DBA's
  // verifying statements, cheap next to the GROUP BYs.
  std::vector<uint64_t> key_counts(data.spec.distinct_k, 0);
  for (int64_t k : data.k) ++key_counts[static_cast<size_t>(k)];
  const uint64_t step = data.spec.distinct_k / kVerifyPointKeys;
  for (uint64_t j = 0; j < kVerifyPointKeys; ++j) {
    const uint64_t key = j * step + step / 2;
    ref.verify_sql.push_back("SELECT COUNT(*) FROM " + data.spec.name +
                             " WHERE K = " + std::to_string(key) + ";");
    ref.verify_expected.push_back(CanonicalCount(key_counts[key]));
  }
  return ref;
}

std::string CheckSchema(const cods::Table& table, const FactReference& ref) {
  const cods::Schema& s = table.schema();
  if (s.ColumnNames() != ref.column_names || s.has_key()) {
    return "schema of " + table.name() + " is " + s.ToString();
  }
  for (const cods::ColumnSpec& c : s.columns()) {
    if (c.type != DataType::kInt64) {
      return "column " + c.name + " of " + table.name() + " is not INT64";
    }
  }
  return "";
}

std::string VerifyFact(const cods::Snapshot& snap, const FactSpec& spec,
                       const FactReference& ref, LatencyLog* qlog) {
  auto table = snap.root().GetTable(spec.name);
  if (!table.ok()) return table.status().ToString();
  std::string schema = CheckSchema(*table.ValueOrDie(), ref);
  if (!schema.empty()) return schema;
  cods::QueryEngine engine(snap.store());
  for (size_t i = 0; i < ref.verify_sql.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto stmt = cods::ParseStatement(ref.verify_sql[i]);
    if (!stmt.ok()) return stmt.status().ToString();
    auto result = engine.Execute(stmt.ValueOrDie().query);
    if (qlog != nullptr) {
      if (result.ok()) {
        qlog->Ok(std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
                    .count());
      } else {
        qlog->Failed();
      }
    }
    if (!result.ok()) return result.status().ToString();
    if (CanonicalResult(result.ValueOrDie()) != ref.verify_expected[i]) {
      return "per-value counts of " + spec.name + " differ on '" +
             ref.verify_sql[i] + "'";
    }
  }
  return "";
}

}  // namespace codsbench
