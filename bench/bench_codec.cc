// The size-adaptive codec vs the all-WAH path: for each representation
// pair, pairwise AND/OR/AND-count over
// the same bit content executed through the codec's specialized kernels
// (BM_Codec*) and through plain WAH merges on the re-encoded interchange
// form (BM_WahPath*). The committed series document the two regimes the
// codec targets:
//
//   * sparse x sparse (array containers): galloping sorted-set
//     intersection touches only the set positions, where the WAH merge
//     still walks every code word;
//   * dense x dense (bitset containers): word-parallel AND + popcount
//     auto-vectorizes, where WAH pays per-word decode branching for
//     literals that compress nothing.
//
// The mixed (WAH x WAH) pairs are committed too: they must track the
// plain WAH path (same kernel underneath), pinning "no regression in the
// regime WAH already handled well". BM_CodecSplit / BM_CodecConcat gate
// the PARTITION and UNION data-movement kernels per input container.
//
// Clustered content — what the density stage alone would store as an
// array, and the size rule stores as WAH fills — has its own series:
// BM_Run* for one run of kBits/1000 bits, BM_SortedColumn* for every
// value of a 1M-row column sorted over 1000 values (each value one run
// of 1000 rows, the shape of a sorted load-date column).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "bitmap/codec.h"
#include "bitmap/wah_filter.h"
#include "bitmap/wah_ops.h"
#include "common/random.h"

namespace cods {
namespace {

constexpr uint64_t kBits = 1 << 22;  // 4M bits per operand

// density = 1 / (2 << arg): 0 -> 50% (bitset), 2 -> 12.5% (WAH),
// 10 -> ~0.05% (array).
double DensityFromArg(int64_t arg) { return 1.0 / (uint64_t{2} << arg); }

WahBitmap MakeWah(double density, uint64_t seed) {
  Rng rng(seed);
  WahBitmap bm;
  uint64_t pos = 0;
  while (pos < kBits) {
    uint64_t gap = static_cast<uint64_t>(
        rng.NextDouble() < density
            ? 0
            : rng.Uniform(0, static_cast<int64_t>(2.0 / density)));
    pos += gap;
    if (pos >= kBits) break;
    bm.AppendSetBit(pos);
    ++pos;
  }
  bm.AppendRun(false, kBits - bm.size());
  return bm;
}

ValueBitmap MakeValue(double density, uint64_t seed) {
  return ValueBitmap::FromWah(MakeWah(density, seed));
}

void PairCounters(benchmark::State& state, const ValueBitmap& a,
                  const ValueBitmap& b) {
  state.counters["rep_a"] = static_cast<double>(a.rep());
  state.counters["rep_b"] = static_cast<double>(b.rep());
  state.counters["codec_bytes"] = static_cast<double>(a.SizeBytes());
  state.counters["wah_bytes"] = static_cast<double>(a.ToWah().SizeBytes());
}

// ---- Pairwise kernels, codec vs WAH path ---------------------------------

void BM_CodecAnd(benchmark::State& state) {
  ValueBitmap a = MakeValue(DensityFromArg(state.range(0)), 1);
  ValueBitmap b = MakeValue(DensityFromArg(state.range(1)), 2);
  for (auto _ : state) {
    ValueBitmap c = CodecAnd(a, b);
    benchmark::DoNotOptimize(c);
  }
  PairCounters(state, a, b);
}

void BM_WahPathAnd(benchmark::State& state) {
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 1);
  WahBitmap b = MakeWah(DensityFromArg(state.range(1)), 2);
  for (auto _ : state) {
    WahBitmap c = WahAnd(a, b);
    benchmark::DoNotOptimize(c);
  }
}

void BM_CodecOr(benchmark::State& state) {
  ValueBitmap a = MakeValue(DensityFromArg(state.range(0)), 3);
  ValueBitmap b = MakeValue(DensityFromArg(state.range(1)), 4);
  for (auto _ : state) {
    ValueBitmap c = CodecOr(a, b);
    benchmark::DoNotOptimize(c);
  }
  PairCounters(state, a, b);
}

void BM_WahPathOr(benchmark::State& state) {
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 3);
  WahBitmap b = MakeWah(DensityFromArg(state.range(1)), 4);
  for (auto _ : state) {
    WahBitmap c = WahOr(a, b);
    benchmark::DoNotOptimize(c);
  }
}

// The GROUP BY histogram kernel: |a & b| without materializing.
void BM_CodecAndCount(benchmark::State& state) {
  ValueBitmap a = MakeValue(DensityFromArg(state.range(0)), 5);
  ValueBitmap b = MakeValue(DensityFromArg(state.range(1)), 6);
  for (auto _ : state) {
    uint64_t n = CodecAndCount(a, b);
    benchmark::DoNotOptimize(n);
  }
  PairCounters(state, a, b);
}

void BM_WahPathAndCount(benchmark::State& state) {
  WahBitmap a = MakeWah(DensityFromArg(state.range(0)), 5);
  WahBitmap b = MakeWah(DensityFromArg(state.range(1)), 6);
  for (auto _ : state) {
    uint64_t n = WahAndCount(a, b);
    benchmark::DoNotOptimize(n);
  }
}

// ---- k-way union (EvalLeafBitmap shape) ----------------------------------
//
// k disjoint-ish sparse operands (one per qualifying dictionary value,
// ~1/k density each) unioned into the WAH selection form.

std::vector<ValueBitmap> MakeSparseOperands(int64_t k) {
  std::vector<ValueBitmap> out;
  out.reserve(static_cast<size_t>(k));
  double density = 1.0 / static_cast<double>(k * 64);
  for (int64_t i = 0; i < k; ++i) {
    out.push_back(MakeValue(density, 100 + static_cast<uint64_t>(i)));
  }
  return out;
}

void BM_CodecOrManySparse(benchmark::State& state) {
  std::vector<ValueBitmap> vbs = MakeSparseOperands(state.range(0));
  std::vector<const ValueBitmap*> operands;
  for (const ValueBitmap& vb : vbs) operands.push_back(&vb);
  for (auto _ : state) {
    WahBitmap c = CodecOrManyWah(operands, kBits);
    benchmark::DoNotOptimize(c);
  }
  state.counters["rep_first"] = static_cast<double>(vbs[0].rep());
}

void BM_WahPathOrManySparse(benchmark::State& state) {
  std::vector<ValueBitmap> vbs = MakeSparseOperands(state.range(0));
  std::vector<WahBitmap> wahs;
  for (const ValueBitmap& vb : vbs) wahs.push_back(vb.ToWah());
  std::vector<const WahBitmap*> operands;
  for (const WahBitmap& w : wahs) operands.push_back(&w);
  for (auto _ : state) {
    WahBitmap c = WahOrMany(operands, kBits);
    benchmark::DoNotOptimize(c);
  }
}

// ---- Data movement (PARTITION / UNION shape) -----------------------------
//
// CodecSplit routes one bitmap's set bits to the selected and the
// complement side in its own container; CodecConcat appends two halves.
// The sweep crosses input density (array / WAH / bitset) with the
// selection's shape: 0 = a clustered prefix (PARTITION on a sorted
// column), 1 = scattered half, 2 = scattered ~3%.

WahBitmap MakeSelection(int64_t shape) {
  if (shape == 0) {
    WahBitmap prefix;
    prefix.AppendRun(true, kBits * 3 / 7);
    prefix.AppendRun(false, kBits - prefix.size());
    return prefix;
  }
  return MakeWah(shape == 1 ? 0.5 : 1.0 / 32, 77);
}

void BM_CodecSplit(benchmark::State& state) {
  ValueBitmap vb = MakeValue(DensityFromArg(state.range(0)), 7);
  WahPositionFilter filter(MakeSelection(state.range(1)));
  for (auto _ : state) {
    std::pair<ValueBitmap, ValueBitmap> sides = CodecSplit(filter, vb);
    benchmark::DoNotOptimize(sides);
  }
  state.counters["rep"] = static_cast<double>(vb.rep());
}

// Halves of unequal, unaligned length, so b lands mid-group and mid-word.
void BM_CodecConcat(benchmark::State& state) {
  const double density = DensityFromArg(state.range(0));
  ValueBitmap whole = MakeValue(density, 8);
  WahBitmap prefix;
  prefix.AppendRun(true, kBits / 3 + 17);
  prefix.AppendRun(false, kBits - prefix.size());
  auto [a, b] = CodecSplit(WahPositionFilter(prefix), whole);
  for (auto _ : state) {
    ValueBitmap c = CodecConcat(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.counters["rep"] = static_cast<double>(whole.rep());
}

// ---- Clustered content: one run, and a sorted column ---------------------

constexpr uint64_t kRunBits = kBits / 1000;

// One run of kRunBits set bits straddling the clustered selection's
// boundary (kBits * 3 / 7), so a split cuts it.
ValueBitmap MakeRun() {
  WahBitmap bm;
  bm.AppendRun(false, kBits * 3 / 7 - kRunBits / 3);
  bm.AppendRun(true, kRunBits);
  bm.AppendRun(false, kBits - bm.size());
  return ValueBitmap::FromWah(std::move(bm));
}

// |run & b| against b of the density class arg (array / WAH / bitset).
void BM_RunAndCount(benchmark::State& state) {
  ValueBitmap a = MakeRun();
  ValueBitmap b = MakeValue(DensityFromArg(state.range(0)), 9);
  for (auto _ : state) {
    uint64_t n = CodecAndCount(a, b);
    benchmark::DoNotOptimize(n);
  }
  PairCounters(state, a, b);
}

// Selection shapes as in BM_CodecSplit: 0 clustered prefix (the run is
// cut in two runs), 1 scattered half, 2 scattered ~3%.
void BM_RunSplit(benchmark::State& state) {
  ValueBitmap vb = MakeRun();
  WahPositionFilter filter(MakeSelection(state.range(0)));
  for (auto _ : state) {
    std::pair<ValueBitmap, ValueBitmap> sides = CodecSplit(filter, vb);
    benchmark::DoNotOptimize(sides);
  }
  state.counters["rep"] = static_cast<double>(vb.rep());
}

// The two halves of the clustered split rejoin into one run.
void BM_RunConcat(benchmark::State& state) {
  auto [a, b] = CodecSplit(WahPositionFilter(MakeSelection(0)), MakeRun());
  for (auto _ : state) {
    ValueBitmap c = CodecConcat(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.counters["rep"] = static_cast<double>(a.rep());
}

constexpr uint64_t kSortedRows = 1000000;
constexpr uint64_t kSortedValues = 1000;

std::vector<ValueBitmap> MakeSortedColumn() {
  std::vector<ValueBitmap> out;
  const uint64_t run = kSortedRows / kSortedValues;
  for (uint64_t v = 0; v < kSortedValues; ++v) {
    WahBitmap bm;
    bm.AppendRun(false, v * run);
    bm.AppendRun(true, run);
    bm.AppendRun(false, kSortedRows - bm.size());
    out.push_back(ValueBitmap::FromWah(std::move(bm)));
  }
  return out;
}

// A row selection over the sorted column's rows: 0 = clustered prefix
// (PARTITION on the sorted column itself), 1 = scattered half (PARTITION
// on an unrelated column).
WahBitmap MakeSortedSelection(int64_t shape) {
  WahBitmap sel;
  if (shape == 0) {
    sel.AppendRun(true, kSortedRows * 3 / 7);
  } else {
    Rng rng(78);
    for (uint64_t r = 0; r < kSortedRows; ++r) sel.AppendBit(rng.NextBool(0.5));
  }
  sel.AppendRun(false, kSortedRows - sel.size());
  return sel;
}

// GROUP BY the sorted column WHERE another column = x: every value's
// |run & selection|, against a scattered mixed-density value (WAH).
void BM_SortedColumnAndCount(benchmark::State& state) {
  std::vector<ValueBitmap> column = MakeSortedColumn();
  Rng rng(79);
  std::vector<uint32_t> positions;
  for (uint32_t r = 0; r < kSortedRows; ++r) {
    if (rng.NextBool(1.0 / 32)) positions.push_back(r);
  }
  ValueBitmap other = ValueBitmap::FromPositions(positions, kSortedRows);
  for (auto _ : state) {
    uint64_t n = 0;
    for (const ValueBitmap& vb : column) n += CodecAndCount(vb, other);
    benchmark::DoNotOptimize(n);
  }
  state.counters["rep"] = static_cast<double>(column[0].rep());
}

// PARTITION of the sorted column: every value split by the selection.
void BM_SortedColumnSplit(benchmark::State& state) {
  std::vector<ValueBitmap> column = MakeSortedColumn();
  WahPositionFilter filter(MakeSortedSelection(state.range(0)));
  for (auto _ : state) {
    for (const ValueBitmap& vb : column) {
      std::pair<ValueBitmap, ValueBitmap> sides = CodecSplit(filter, vb);
      benchmark::DoNotOptimize(sides);
    }
  }
}

// UNION of the two sides of that PARTITION, value by value.
void BM_SortedColumnConcat(benchmark::State& state) {
  WahPositionFilter filter(MakeSortedSelection(state.range(0)));
  std::vector<std::pair<ValueBitmap, ValueBitmap>> halves;
  for (const ValueBitmap& vb : MakeSortedColumn()) {
    halves.push_back(CodecSplit(filter, vb));
  }
  for (auto _ : state) {
    for (const auto& [a, b] : halves) {
      ValueBitmap c = CodecConcat(a, b);
      benchmark::DoNotOptimize(c);
    }
  }
}

void SplitSweep(benchmark::internal::Benchmark* b) {
  for (int64_t density : {10, 2, 0}) {
    for (int64_t shape : {0, 1, 2}) b->Args({density, shape});
  }
  b->Unit(benchmark::kMicrosecond);
}

void ConcatSweep(benchmark::internal::Benchmark* b) {
  for (int64_t density : {10, 2, 0}) b->Arg(density);
  b->Unit(benchmark::kMicrosecond);
}

// Density-pair sweep: array x array, array x WAH, array x bitset,
// WAH x WAH, WAH x bitset, bitset x bitset.
void RepPairSweep(benchmark::internal::Benchmark* b) {
  b->Args({10, 10})
      ->Args({10, 2})
      ->Args({10, 0})
      ->Args({2, 2})
      ->Args({2, 0})
      ->Args({0, 0})
      ->Unit(benchmark::kMicrosecond);
}

void KSweep(benchmark::internal::Benchmark* b) {
  for (int64_t k : {8, 32, 128}) b->Arg(k);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_CodecAnd)->Apply(RepPairSweep);
BENCHMARK(BM_WahPathAnd)->Apply(RepPairSweep);
BENCHMARK(BM_CodecOr)->Apply(RepPairSweep);
BENCHMARK(BM_WahPathOr)->Apply(RepPairSweep);
BENCHMARK(BM_CodecAndCount)->Apply(RepPairSweep);
BENCHMARK(BM_WahPathAndCount)->Apply(RepPairSweep);
BENCHMARK(BM_CodecOrManySparse)->Apply(KSweep);
BENCHMARK(BM_WahPathOrManySparse)->Apply(KSweep);
BENCHMARK(BM_CodecSplit)->Apply(SplitSweep);
BENCHMARK(BM_CodecConcat)->Apply(ConcatSweep);
BENCHMARK(BM_RunAndCount)
    ->Arg(10)
    ->Arg(2)
    ->Arg(0)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunSplit)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunConcat)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SortedColumnAndCount)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SortedColumnSplit)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SortedColumnConcat)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cods

CODS_BENCH_MAIN("codec")
