// Script-level scheduling: serial ApplyAll vs the planner + task-graph
// executor (ApplyAllPlanned) on scripts with exploitable inter-operator
// parallelism. Two shapes:
//
//   * Wide: k independent DECOMPOSEs over k disjoint tables — the DAG is
//     k roots, so all k operators may overlap.
//   * Diamond: PARTITION fan-out into two independent PARTITIONs, then
//     two independent UNIONs — a 2-wide diamond with a 3-stage critical
//     path.
//
// Every planned series records the task-graph stats (`max_parallel`,
// `tasks`, `edges`): on multicore hardware the speedup shows in
// real_time, on a 1-vCPU CI runner the overlap still shows in
// max_parallel >= 2. The planned/threads:1 series measures pure planner
// + staging overhead against the serial baseline.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "plan/script_planner.h"

namespace cods {
namespace {

constexpr uint64_t kDistinct = 1000;
constexpr int kWideTables = 4;

// k independent DECOMPOSEs over R0..R{k-1}.
std::vector<Smo> WideScript(int k) {
  std::vector<Smo> script;
  script.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    std::string n = std::to_string(i);
    script.push_back(Smo::DecomposeTable(
        "R" + n, "S" + n, {kKeyColumn, kPayloadColumn}, {}, "T" + n,
        {kKeyColumn, kDependentColumn}, {kKeyColumn}));
  }
  return script;
}

std::unique_ptr<SnapshotCatalog> WideCatalog(int k) {
  Catalog seed;
  for (int i = 0; i < k; ++i) {
    CODS_CHECK_OK(seed.AddTable(
        bench::CachedR(kDistinct)->WithName("R" + std::to_string(i))));
  }
  auto catalog = std::make_unique<SnapshotCatalog>();
  catalog->Reset(seed);
  return catalog;
}

// PARTITION R; PARTITION both halves (independent); UNION the quarters
// crosswise (independent).
std::vector<Smo> DiamondScript() {
  const auto lit = [](uint64_t v) { return Value(static_cast<int64_t>(v)); };
  std::vector<Smo> script;
  script.push_back(Smo::PartitionTable("R", "L", "H", kKeyColumn,
                                       CompareOp::kLt, lit(kDistinct / 2)));
  script.push_back(Smo::PartitionTable("L", "L1", "L2", kKeyColumn,
                                       CompareOp::kLt, lit(kDistinct / 4)));
  script.push_back(Smo::PartitionTable("H", "H1", "H2", kKeyColumn,
                                       CompareOp::kLt,
                                       lit(3 * kDistinct / 4)));
  script.push_back(Smo::UnionTables("L1", "H1", "M"));
  script.push_back(Smo::UnionTables("L2", "H2", "O"));
  return script;
}

std::unique_ptr<SnapshotCatalog> DiamondCatalog() {
  Catalog seed;
  CODS_CHECK_OK(seed.AddTable(bench::CachedR(kDistinct)));
  auto catalog = std::make_unique<SnapshotCatalog>();
  catalog->Reset(seed);
  return catalog;
}

template <typename CatalogFn>
void RunApplyAll(benchmark::State& state, const std::vector<Smo>& script,
               CatalogFn&& fresh_catalog) {
  bench::RunMeta meta(state, 1);
  EngineOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    state.PauseTiming();
    auto catalog = fresh_catalog();
    EvolutionEngine engine(catalog.get(), nullptr, options);
    state.ResumeTiming();
    Status st = engine.ApplyAll(script);
    CODS_CHECK(st.ok()) << st.ToString();
  }
  state.counters["tasks"] = static_cast<double>(script.size());
  state.counters["rows"] = static_cast<double>(bench::BenchRows());
}

template <typename CatalogFn>
void RunApplyAllPlanned(benchmark::State& state, const std::vector<Smo>& script,
                CatalogFn&& fresh_catalog) {
  const int threads = static_cast<int>(state.range(0));
  bench::RunMeta meta(state, ExecContext(threads).num_threads());
  EngineOptions options;
  options.num_threads = threads;
  TaskGraphStats stats{};
  for (auto _ : state) {
    state.PauseTiming();
    auto catalog = fresh_catalog();
    EvolutionEngine engine(catalog.get(), nullptr, options);
    state.ResumeTiming();
    Status st = engine.ApplyAllPlanned(script, &stats);
    CODS_CHECK(st.ok()) << st.ToString();
  }
  const ScriptPlan plan = PlanScript(script);
  state.counters["tasks"] = static_cast<double>(stats.tasks);
  state.counters["edges"] = static_cast<double>(plan.num_edges);
  state.counters["stages"] = static_cast<double>(plan.stages.size());
  state.counters["max_parallel"] = static_cast<double>(stats.max_parallel);
  state.counters["rows"] = static_cast<double>(bench::BenchRows());
}

void BM_Script_WideDecomposeSerial(benchmark::State& state) {
  RunApplyAll(state, WideScript(kWideTables),
            [] { return WideCatalog(kWideTables); });
}

void BM_Script_WideDecomposePlanned(benchmark::State& state) {
  RunApplyAllPlanned(state, WideScript(kWideTables),
             [] { return WideCatalog(kWideTables); });
}

void BM_Script_DiamondSerial(benchmark::State& state) {
  RunApplyAll(state, DiamondScript(), [] { return DiamondCatalog(); });
}

void BM_Script_DiamondPlanned(benchmark::State& state) {
  RunApplyAllPlanned(state, DiamondScript(), [] { return DiamondCatalog(); });
}

#define CODS_SCRIPT_BENCH(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMillisecond)->MinTime(0.1)

#define CODS_SCRIPT_BENCH_THREADS(fn) \
  CODS_SCRIPT_BENCH(fn)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)

CODS_SCRIPT_BENCH(BM_Script_WideDecomposeSerial);
CODS_SCRIPT_BENCH_THREADS(BM_Script_WideDecomposePlanned);
CODS_SCRIPT_BENCH(BM_Script_DiamondSerial);
CODS_SCRIPT_BENCH_THREADS(BM_Script_DiamondPlanned);

}  // namespace
}  // namespace cods

CODS_BENCH_MAIN("script")
