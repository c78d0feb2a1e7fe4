// Self-tests of the benchmark harness: the percentile and sample-count
// rule, latency from the scheduled send time, span self-time arithmetic,
// and the oracle catching a wrong answer. Exits non-zero on any failure.
//
//   bench_selftest
#include <cstdio>
#include <string>

#include "concurrency/snapshot_catalog.h"
#include "data.h"
#include "smo/parser.h"
#include "stats.h"
#include "trace.h"

namespace codsbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, \
                   #cond);                                         \
      ++g_failures;                                                \
    }                                                              \
  } while (0)

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(Percentile(v, 0.5) == 50);
  EXPECT(Percentile(v, 0.9) == 90);
  EXPECT(Percentile(v, 0.99) == 99);
  EXPECT(Percentile(v, 1.0) == 100);
  EXPECT(Percentile({}, 0.5) == 0);
  EXPECT(Percentile({7}, 0.99) == 7);
  // A percentile counts only with at least ten samples beyond it.
  EXPECT(PercentileSupported(100, 0.9));
  EXPECT(!PercentileSupported(99, 0.9));
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(!PercentileSupported(999, 0.99));
  EXPECT(PercentileSupported(5000, 0.99));
  EXPECT(!PercentileSupported(10, 0.5));

  // A failure is recorded at the failure cost, never as a fast answer.
  LatencyLog log(1e6);
  for (int i = 0; i < 99; ++i) log.Ok(1.0);
  log.Failed();
  EXPECT(log.failed() == 1);
  EXPECT(log.count() == 100);
  EXPECT(log.P(1.0) == 1e6);
  EXPECT(log.P(0.5) == 1.0);
}

void TestScheduledSendTiming() {
  OpenLoopSchedule s;
  s.start = std::chrono::steady_clock::time_point{} + std::chrono::seconds(1);
  s.rate = 1000;  // one statement per millisecond
  EXPECT(s.Due(0) == s.start);
  EXPECT(s.Due(5) == s.start + std::chrono::milliseconds(5));
  // Statement 5 was due at 5 ms; the generator stalled and sent it at
  // 9 ms; the reply came at 10 ms. Its latency is 5 ms, not 1 ms.
  const auto reply = s.start + std::chrono::milliseconds(10);
  EXPECT(std::abs(s.LatencyUs(5, reply) - 5000.0) < 1e-6);
  // A stall delays everything queued behind it by the same amount.
  EXPECT(std::abs(s.LatencyUs(9, reply) - 1000.0) < 1e-6);
}

void TestSpanSelfTime() {
  // root [0,100]: children a [10,30] and b [20,50] overlap, c [90,120]
  // sticks out of the parent; a has a grandchild g [12,14].
  std::vector<SpanRecord> spans(5);
  spans[0] = {"root", 1, -1, 0, 100, 1};
  spans[1] = {"a", 1, 0, 10, 30, 1};
  spans[2] = {"g", 1, 1, 12, 14, 1};
  spans[3] = {"b", 1, 0, 20, 50, 1};
  spans[4] = {"c", 1, 0, 90, 120, 4};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 40 - 10);  // union [10,50] + clipped [90,100]
  EXPECT(self[1] == 20 - 2);
  EXPECT(self[2] == 2);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 30);

  // The recorder nests spans through its open-span stack and reports the
  // median self time per call.
  Tracer tr(true);
  {
    Tracer::Span outer(&tr, "outer", 7);
    { Tracer::Span inner(&tr, "inner", 7, 2); }
  }
  { Tracer::Span lone(&tr, "lone", 8); }
  EXPECT(tr.spans().size() == 3);
  EXPECT(tr.spans()[1].parent == 0);
  EXPECT(tr.spans()[2].parent == -1);
  EXPECT(tr.spans()[1].trace_id == 7);
  const auto med = tr.MedianSelfNsByName();
  EXPECT(med.count("outer") == 1 && med.count("inner") == 1);
  EXPECT(med.at("inner") * 2 <=
         static_cast<double>(tr.spans()[1].end_ns - tr.spans()[1].start_ns));

  Tracer off(false);
  { Tracer::Span s(&off, "x", 1); }
  EXPECT(off.spans().empty());
}

std::string Answer(const cods::TableStore& store, const std::string& sql) {
  auto stmt = cods::ParseStatement(sql);
  if (!stmt.ok()) return stmt.status().ToString();
  auto r = cods::QueryEngine(&store).Execute(stmt.ValueOrDie().query);
  return r.ok() ? CanonicalResult(r.ValueOrDie()) : r.status().ToString();
}

void TestOracle() {
  FactData r = GenerateFact(FactSpec{"R", 20'000, 400}, 5);
  auto d = GenerateDim();
  QueryPool pool = QueryPool::Build(r, d, 5);
  cods::Catalog catalog;
  EXPECT(catalog.AddTable(BuildFactTable(r)).ok());
  EXPECT(catalog.AddTable(d).ok());

  // CODS and the row-store oracle agree on every template and on a
  // spread of point keys...
  for (int kind = 1; kind < kNumQueryKinds; ++kind) {
    for (int t = 0; t < QueryPool::kTemplatesPerKind; ++t) {
      const QueryRef q{static_cast<QueryKind>(kind), t};
      const std::string got = Answer(catalog, pool.Text(q));
      if (got != pool.Expected(q)) {
        std::fprintf(stderr, "oracle mismatch on %s\n  cods:   %s\n"
                     "  oracle: %s\n", pool.Text(q).c_str(), got.c_str(),
                     pool.Expected(q).c_str());
      }
      EXPECT(got == pool.Expected(q));
    }
  }
  for (int64_t key = 0; key < 400; key += 37) {
    const QueryRef q{QueryKind::kPoint, key};
    EXPECT(Answer(catalog, pool.Text(q)) == pool.Expected(q));
  }
  // ...and an injected wrong count is caught.
  const QueryRef q{QueryKind::kPoint, 42};
  pool.InjectWrongPointAnswerForTest(42);
  EXPECT(Answer(catalog, pool.Text(q)) != pool.Expected(q));

  // The per-cycle evolve check catches a wrong per-value count too.
  cods::SnapshotCatalog snaps;
  snaps.Reset(catalog);
  FactReference ref = BuildFactReference(r);
  EXPECT(VerifyFact(snaps.GetSnapshot(), r.spec, ref, nullptr).empty());
  ref.verify_expected[1] += "0;";
  EXPECT(!VerifyFact(snaps.GetSnapshot(), r.spec, ref, nullptr).empty());
}

}  // namespace
}  // namespace codsbench

int main() {
  codsbench::TestPercentiles();
  codsbench::TestScheduledSendTiming();
  codsbench::TestSpanSelfTime();
  codsbench::TestOracle();
  if (codsbench::g_failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n",
                 codsbench::g_failures);
    return 1;
  }
  std::printf("bench_selftest: all checks passed\n");
  return 0;
}
