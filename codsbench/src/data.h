// Seeded inputs of the benchmark: the fact tables R and W, the dimension
// table D, the statement pools the reader sessions draw from, the DBA's
// evolution cycle, and the oracle answers every reply is checked against.
#ifndef CODSBENCH_DATA_H_
#define CODSBENCH_DATA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "concurrency/snapshot_catalog.h"
#include "query/query_engine.h"
#include "server/wire.h"
#include "stats.h"
#include "storage/table.h"

namespace codsbench {

// ---- Tables ---------------------------------------------------------------

/// A fact table F(K, V, L, P): K a key drawn uniformly from `distinct_k`
/// values (every value present), V a payload, L a load date that is
/// sorted by row (the clustered-value regime), P = f(K) so K -> P holds
/// and DECOMPOSE/MERGE on K round-trips.
struct FactSpec {
  std::string name;
  uint64_t rows = 0;
  uint64_t distinct_k = 0;
  uint64_t distinct_v = 32;
  uint64_t distinct_l = 1000;
  uint64_t distinct_p = 16;
};

struct FactData {
  FactSpec spec;
  std::vector<int64_t> k, v, l, p;  // column values by row
};

FactData GenerateFact(const FactSpec& spec, uint64_t seed);

/// F's schema: K, V, L, P, all INT64, no declared key.
cods::Schema FactSchema();

/// Loads generated rows into CODS: dictionaries and per-value bitmaps.
std::shared_ptr<const cods::Table> BuildFactTable(const FactData& data);

/// Keys [0, kDimKeys) of R are "promoted" into D(K, tier), tier = K % 8.
inline constexpr int64_t kDimKeys = 40;
inline constexpr int64_t kDimTiers = 8;
std::shared_ptr<const cods::Table> GenerateDim();

/// Fixed-width bytes of a table: rows x columns x 8 (every column is
/// INT64), the denominator of space_amp.
uint64_t RawBytes(const cods::Table& table);

// ---- Answers --------------------------------------------------------------

/// Canonical text of an answer, so a wire reply, an engine result and an
/// oracle answer compare byte for byte. Group rows are sorted by group
/// value and groups with a zero COUNT(*) are dropped (a dictionary entry
/// no row carries is not a value of the table).
std::string CanonicalCount(uint64_t n);
std::string CanonicalRows(const std::vector<cods::Row>& rows);
std::string CanonicalGroups(std::vector<cods::Row> groups);
std::string CanonicalWire(const cods::server::WireResponse& r);
std::string CanonicalResult(const cods::QueryResult& r);

// ---- Reader statements ----------------------------------------------------

enum class QueryKind { kPoint, kRange, kTopN, kGroup, kJoin };
inline constexpr int kNumQueryKinds = 5;

struct QueryRef {
  QueryKind kind = QueryKind::kPoint;
  int64_t arg = 0;  // the key (kPoint) or the template index
};

/// The prepared point statement every reader session registers.
inline constexpr char kPointSql[] = "SELECT COUNT(*) FROM R WHERE K = $1;";

/// Statement templates over R and D with their oracle answers, computed
/// at set-up by the row-store baseline (rowstore/ + query/row_executor)
/// from the generated rows, never by CODS itself.
class QueryPool {
 public:
  static constexpr int kTemplatesPerKind = 16;

  /// Builds the templates and answers them from a RowTable copy of `r`
  /// and `d`; the row store is freed before returning.
  static QueryPool Build(const FactData& r,
                         const std::shared_ptr<const cods::Table>& d,
                         uint64_t seed);

  /// Text of the statement; kPoint statements are also sent prepared.
  std::string Text(const QueryRef& q) const;
  const std::string& Expected(const QueryRef& q) const;

  /// Every kTailEvery-th statement of a stream is a tail statement; the
  /// tail rotates through range counts, top-N selects, GROUP BYs and
  /// joins and through their templates, so every run has the same mix.
  /// The rest are point lookups with uniform keys.
  static constexpr uint64_t kTailEvery = 40;

  /// Statement number `seq` of a stream.
  QueryRef Draw(cods::Rng& rng, uint64_t seq) const;

  /// For the harness self-test: corrupts one point answer.
  void InjectWrongPointAnswerForTest(int64_t key);

 private:
  uint64_t distinct_k_ = 0;
  std::vector<std::string> point_answers_;  // by key
  std::vector<std::string> texts_[kNumQueryKinds];
  std::vector<std::string> answers_[kNumQueryKinds];
};

// ---- The DBA's evolution cycle -------------------------------------------

/// One cycle over fact table `t`. Every script is the statement text the
/// DBA submits; the cycle returns `t` to an equivalent table (same schema,
/// same per-value counts, same row order of L):
///   DECOMPOSE t -> t_s(K, V, L), t_t(K, P) KEY(K)
///   MERGE t_s, t_t -> t ON (K)
///   PARTITION t by load date into t_old, t_new
///   ADD/RENAME/DROP COLUMN on both partitions (one planned script)
///   UNION t_old, t_new -> t
struct CycleScript {
  enum class Kind { kDecompose, kMerge, kPartition, kColumnOps, kUnion };
  Kind kind;
  std::vector<std::string> statements;
};

std::vector<CycleScript> EvolutionCycle(const FactSpec& t, uint64_t cycle);

/// The DBA's verifying statements with their answers from the generated
/// rows: "SELECT c, COUNT(*) FROM t GROUP BY c" for every column, then
/// COUNT(*) WHERE K = k for kVerifyPointKeys keys spread over the domain.
inline constexpr uint64_t kVerifyPointKeys = 50;
struct FactReference {
  std::vector<std::string> verify_sql;
  std::vector<std::string> verify_expected;  // canonical answers
  std::vector<std::string> column_names;     // schema, in order
};
FactReference BuildFactReference(const FactData& data);

/// Empty when `table` has the reference schema (names, types, order, no
/// declared key); else a description of the difference.
std::string CheckSchema(const cods::Table& table, const FactReference& ref);

/// Checks table `spec.name` of `snap` against the reference schema and
/// per-value counts through the embedded query engine. Times each
/// verifying statement into `qlog` when given. Returns "" or the first
/// mismatch.
std::string VerifyFact(const cods::Snapshot& snap, const FactSpec& spec,
                       const FactReference& ref, LatencyLog* qlog);

}  // namespace codsbench

#endif  // CODSBENCH_DATA_H_
