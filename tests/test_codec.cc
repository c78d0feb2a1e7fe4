// Tests for the size-adaptive bitmap codec: the representation rule,
// every kernel verified against the WAH oracle across all representation
// pairs (randomized property sweep), serde round trips for v1/v2/v3
// images, and corruption injection — a mutated image must surface as
// Status::Corruption, never as silently wrong data.

#include "bitmap/codec.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "bitmap/wah_filter.h"
#include "bitmap/wah_ops.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/serde.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::RandomFdTable;

// Sample exactly `ones` distinct positions in [0, size), so the
// representation each density class maps to is guaranteed, not merely
// likely.
std::vector<uint32_t> SamplePositions(uint64_t size, uint64_t ones,
                                      uint64_t seed) {
  Rng rng(seed);
  std::set<uint32_t> picked;
  while (picked.size() < ones) {
    picked.insert(
        static_cast<uint32_t>(rng.Uniform(0, static_cast<int64_t>(size) - 1)));
  }
  return std::vector<uint32_t>(picked.begin(), picked.end());
}

WahBitmap WahFromU32(const std::vector<uint32_t>& positions, uint64_t size) {
  std::vector<uint64_t> wide(positions.begin(), positions.end());
  return WahBitmap::FromPositions(wide, size);
}

std::vector<uint32_t> RangePositions(uint64_t begin, uint64_t end) {
  std::vector<uint32_t> out;
  for (uint64_t p = begin; p < end; ++p) {
    out.push_back(static_cast<uint32_t>(p));
  }
  return out;
}

ValueBitmap MakeRandom(uint64_t size, uint64_t ones, uint64_t seed) {
  return ValueBitmap::FromPositions(SamplePositions(size, ones, seed), size);
}

// The density classes the sweep crosses. For size 4096: empty and full
// stay on WAH (homogeneous), 30 ones <= 4096/64 picks the array, 400 is
// the mixed WAH regime, 2000 >= 1024 picks the bitset.
constexpr uint64_t kSweepSize = 4096;
struct DensityClass {
  uint64_t ones;
  BitmapRep rep;
};
const DensityClass kClasses[] = {
    {0, BitmapRep::kWah},     {30, BitmapRep::kArray},
    {400, BitmapRep::kWah},   {2000, BitmapRep::kBitset},
    {4096, BitmapRep::kWah},
};

// Run count of strictly increasing positions (the rule's third input).
template <typename T>
uint64_t RunsOf(const std::vector<T>& positions) {
  uint64_t runs = 0;
  for (size_t i = 0; i < positions.size(); ++i) {
    runs += i == 0 || positions[i] != positions[i - 1] + 1;
  }
  return runs;
}

TEST(ChooseRep, DensityThresholds) {
  // Scattered content (every set bit its own run): the density choice.
  // Homogeneous bitmaps stay on WAH regardless of density class.
  EXPECT_EQ(ChooseBitmapRep(0, 1000, 0), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(1000, 1000, 1), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(0, 0, 0), BitmapRep::kWah);
  // Sparse boundary: ones <= size/64.
  EXPECT_EQ(ChooseBitmapRep(15, 1000, 15), BitmapRep::kArray);
  EXPECT_EQ(ChooseBitmapRep(16, 1024, 16), BitmapRep::kArray);
  EXPECT_EQ(ChooseBitmapRep(17, 1024, 17), BitmapRep::kWah);
  // Dense boundary: ones >= (size+3)/4.
  EXPECT_EQ(ChooseBitmapRep(255, 1024, 255), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(256, 1024, 256), BitmapRep::kBitset);
  // Positions are uint32_t: huge bitmaps never choose the array.
  EXPECT_EQ(ChooseBitmapRep(2, (uint64_t{1} << 33), 2), BitmapRep::kWah);
}

TEST(ChooseRep, ClusteredContentTakesWahWhenItsBoundIsSmaller) {
  // Array side: WahBoundBytes(1) = 48 B against 4 B per position.
  EXPECT_EQ(WahBoundBytes(1), 48u);
  EXPECT_EQ(ChooseBitmapRep(15, 1000, 1), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(13, 1000, 1), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(12, 1000, 1), BitmapRep::kArray);  // tie
  EXPECT_EQ(ChooseBitmapRep(15, 1000, 2), BitmapRep::kArray);  // 80 > 60
  // One sorted-column value: 1000 rows of 1M in one run.
  EXPECT_EQ(ChooseBitmapRep(1000, 1000000, 1), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(1000, 1000000, 1000), BitmapRep::kArray);
  // Bitset side: against the bitset's words (6 words = 48 B at 384 bits).
  EXPECT_EQ(ChooseBitmapRep(200, 384, 1), BitmapRep::kBitset);  // tie
  EXPECT_EQ(ChooseBitmapRep(200, 448, 1), BitmapRep::kWah);     // 48 < 56
  EXPECT_EQ(ChooseBitmapRep(256, 1024, 1), BitmapRep::kWah);
  EXPECT_EQ(ChooseBitmapRep(512, 1024, 3), BitmapRep::kWah);    // 112 < 128
  EXPECT_EQ(ChooseBitmapRep(512, 1024, 4), BitmapRep::kBitset); // 144 > 128
  // The mixed regime is WAH whatever the runs.
  EXPECT_EQ(ChooseBitmapRep(400, 4096, 400), BitmapRep::kWah);
  // Huge bitmaps: the density stage picks WAH, so runs do not matter.
  EXPECT_EQ(ChooseBitmapRep(2, (uint64_t{1} << 33), 1), BitmapRep::kWah);
}

TEST(ValueBitmap, ConstructorsAgreeAndAreCanonical) {
  for (const DensityClass& c : kClasses) {
    std::vector<uint32_t> positions = SamplePositions(kSweepSize, c.ones, 7);
    ValueBitmap from_positions =
        ValueBitmap::FromPositions(positions, kSweepSize);
    ValueBitmap from_wah =
        ValueBitmap::FromWah(WahFromU32(positions, kSweepSize));
    std::vector<uint64_t> words((kSweepSize + 63) / 64, 0);
    for (uint32_t p : positions) words[p / 64] |= uint64_t{1} << (p % 64);
    ValueBitmap from_words = ValueBitmap::FromDenseWords(words, kSweepSize);

    EXPECT_EQ(from_positions.rep(), c.rep) << c.ones;
    EXPECT_EQ(from_positions, from_wah) << c.ones;
    EXPECT_EQ(from_positions, from_words) << c.ones;
    EXPECT_EQ(from_positions.CountOnes(), c.ones);
    EXPECT_TRUE(from_positions.Validate(kSweepSize).ok());
    EXPECT_EQ(from_positions.ToWah(), WahFromU32(positions, kSweepSize));
  }
  // Clustered content: runs, not density, pick the container. Each case
  // is (positions, expected rep) over kSweepSize bits.
  std::vector<uint32_t> short_runs, long_runs;  // 30 ones, density: array
  for (uint32_t r = 0; r < 10; ++r) {
    for (uint32_t i = 0; i < 3; ++i) short_runs.push_back(r * 400 + i);
  }
  for (uint32_t r = 0; r < 2; ++r) {
    for (uint32_t i = 0; i < 15; ++i) long_runs.push_back(r * 2000 + 7 + i);
  }
  std::vector<uint32_t> dense_block;  // 2000 ones, density: bitset
  for (uint32_t p = 1000; p < 3000; ++p) dense_block.push_back(p);
  const std::pair<std::vector<uint32_t>, BitmapRep> clustered[] = {
      {short_runs, BitmapRep::kArray},   // 10 runs: 336 B > 120 B
      {long_runs, BitmapRep::kWah},      // 2 runs: 80 B < 120 B
      {dense_block, BitmapRep::kWah},    // 1 run: 48 B < 512 B
      {RangePositions(0, 60), BitmapRep::kWah},
  };
  for (const auto& [positions, rep] : clustered) {
    ValueBitmap from_positions =
        ValueBitmap::FromPositions(positions, kSweepSize);
    ValueBitmap from_wah =
        ValueBitmap::FromWah(WahFromU32(positions, kSweepSize));
    std::vector<uint64_t> words((kSweepSize + 63) / 64, 0);
    for (uint32_t p : positions) words[p / 64] |= uint64_t{1} << (p % 64);
    ValueBitmap from_words = ValueBitmap::FromDenseWords(words, kSweepSize);
    const std::string what = std::to_string(positions.size()) + " ones in " +
                             std::to_string(RunsOf(positions)) + " runs";
    EXPECT_EQ(from_positions.rep(), rep) << what;
    EXPECT_EQ(from_positions.rep(),
              ChooseBitmapRep(positions.size(), kSweepSize,
                              RunsOf(positions)))
        << what;
    EXPECT_EQ(from_positions, from_wah) << what;
    EXPECT_EQ(from_positions, from_words) << what;
    EXPECT_TRUE(from_positions.Validate(kSweepSize).ok()) << what;
    EXPECT_EQ(from_positions.ToWah(), WahFromU32(positions, kSweepSize));
    if (rep == BitmapRep::kWah) {
      EXPECT_LE(from_positions.SizeBytes(), WahBoundBytes(RunsOf(positions)))
          << what;
    }
  }
}

TEST(ValueBitmap, PointQueriesMatchOracle) {
  for (const DensityClass& c : kClasses) {
    std::vector<uint32_t> positions = SamplePositions(kSweepSize, c.ones, 11);
    ValueBitmap vb = ValueBitmap::FromPositions(positions, kSweepSize);
    WahBitmap oracle = WahFromU32(positions, kSweepSize);
    EXPECT_EQ(vb.FirstSetBit(), oracle.FirstSetBit());
    EXPECT_EQ(vb.SetPositions(), oracle.SetPositions());
    Rng rng(13);
    for (int i = 0; i < 64; ++i) {
      uint64_t pos = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(kSweepSize) - 1));
      EXPECT_EQ(vb.Get(pos), oracle.Get(pos));
    }
    std::vector<uint64_t> collected;
    vb.ForEachSetBit([&](uint64_t pos) { collected.push_back(pos); });
    EXPECT_EQ(collected, oracle.SetPositions());
  }
}

// The core property sweep: every pairwise kernel against the WAH oracle
// across the full representation cross product, several seeds each.
TEST(CodecKernels, PairwiseSweepVsWahOracle) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const DensityClass& ca : kClasses) {
      for (const DensityClass& cb : kClasses) {
        ValueBitmap a = MakeRandom(kSweepSize, ca.ones, seed * 101 + ca.ones);
        ValueBitmap b = MakeRandom(kSweepSize, cb.ones, seed * 977 + cb.ones);
        WahBitmap wa = a.ToWah();
        WahBitmap wb = b.ToWah();
        SCOPED_TRACE(a.ToString() + " x " + b.ToString());

        EXPECT_EQ(CodecAnd(a, b), ValueBitmap::FromWah(WahAnd(wa, wb)));
        EXPECT_EQ(CodecOr(a, b), ValueBitmap::FromWah(WahOr(wa, wb)));
        EXPECT_EQ(CodecNot(a), ValueBitmap::FromWah(WahNot(wa)));
        EXPECT_EQ(CodecAndCount(a, b), WahAndCount(wa, wb));

        // Interchange-form kernels against a WAH selection.
        WahBitmap selection;
        {
          Rng rng(seed * 31 + ca.ones + cb.ones);
          for (uint64_t i = 0; i < kSweepSize; ++i) {
            selection.AppendBit(rng.NextBool(0.2));
          }
        }
        EXPECT_EQ(CodecAndWah(a, selection), WahAnd(wa, selection));
        EXPECT_EQ(CodecAndCountWah(a, selection),
                  WahAndCount(wa, selection));
      }
    }
  }
}

TEST(CodecKernels, OrManyMixedRepsVsOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<ValueBitmap> vbs;
    for (const DensityClass& c : kClasses) {
      vbs.push_back(MakeRandom(kSweepSize, c.ones, seed * 53 + c.ones));
      vbs.push_back(MakeRandom(kSweepSize, c.ones, seed * 59 + c.ones + 1));
    }
    std::vector<const ValueBitmap*> operands;
    std::vector<WahBitmap> wahs;
    for (const ValueBitmap& vb : vbs) {
      operands.push_back(&vb);
      wahs.push_back(vb.ToWah());
    }
    std::vector<const WahBitmap*> wah_ptrs;
    for (const WahBitmap& w : wahs) wah_ptrs.push_back(&w);

    WahBitmap oracle = WahOrMany(wah_ptrs, kSweepSize);
    EXPECT_EQ(CodecOrManyWah(operands, kSweepSize), oracle);
    EXPECT_EQ(CodecOrManyCount(operands, kSweepSize), oracle.CountOnes());

    // Subsets exercise the all-WAH fast path and single-operand cases.
    std::vector<const ValueBitmap*> just_wah = {operands[4], operands[5]};
    EXPECT_EQ(CodecOrManyWah(just_wah, kSweepSize),
              WahOr(*wah_ptrs[4], *wah_ptrs[5]));
    std::vector<const ValueBitmap*> one = {operands[2]};
    EXPECT_EQ(CodecOrManyWah(one, kSweepSize), wahs[2]);
    EXPECT_EQ(CodecOrManyWah({}, kSweepSize).CountOnes(), 0u);
    EXPECT_EQ(CodecOrManyWah({}, kSweepSize).size(), kSweepSize);
  }
}

TEST(CodecKernels, FilterMatchesCompressedOracle) {
  Rng rng(21);
  std::vector<uint64_t> kept;
  for (uint64_t i = 0; i < kSweepSize; ++i) {
    if (rng.NextBool(0.3)) kept.push_back(i);
  }
  WahPositionFilter filter(kept, kSweepSize);
  for (const DensityClass& c : kClasses) {
    ValueBitmap vb = MakeRandom(kSweepSize, c.ones, 87 + c.ones);
    ValueBitmap filtered = CodecFilter(filter, vb);
    WahBitmap oracle = filter.Filter(vb.ToWah());
    EXPECT_EQ(filtered, ValueBitmap::FromWah(oracle)) << vb.ToString();
    EXPECT_TRUE(filtered.Validate(kept.size()).ok());
  }
}

// ---- Data-movement kernels vs a decode-to-positions oracle ---------------

const uint64_t kMoveSizes[] = {0, 1, 62, 63, 64, 65, 127, 4095, 65537};

// Inputs covering every container: all-zero and all-one fills, array,
// mixed WAH, bitset, a clustered run (WAH with 1-fills), and sparse
// clustered content the density stage alone would store as an array: one
// short run, and runs of 16 every 1024 bits.
std::vector<ValueBitmap> MoveInputs(uint64_t size, uint64_t seed) {
  std::vector<ValueBitmap> out;
  out.push_back(ValueBitmap::FromPositions({}, size));
  out.push_back(ValueBitmap::FromPositions(RangePositions(0, size), size));
  for (uint64_t ones : {std::max<uint64_t>(size / 64, 1), size / 8, size / 2}) {
    if (ones <= size) out.push_back(MakeRandom(size, ones, seed + ones));
  }
  out.push_back(ValueBitmap::FromPositions(
      RangePositions(size / 3, size / 3 + size / 8), size));
  out.push_back(ValueBitmap::FromPositions(
      RangePositions(size / 2, size / 2 + size / 100), size));
  std::vector<uint32_t> strided;
  for (uint64_t base = 0; base + 16 <= size; base += 1024) {
    for (uint64_t i = 0; i < 16; ++i) {
      strided.push_back(static_cast<uint32_t>(base + i));
    }
  }
  out.push_back(ValueBitmap::FromPositions(std::move(strided), size));
  return out;
}

// Selections: none, all, a prefix, a suffix, a middle run, alternating
// bits, and random at three densities.
std::vector<std::vector<bool>> MoveSelections(uint64_t size, uint64_t seed) {
  std::vector<std::vector<bool>> out(9, std::vector<bool>(size, false));
  Rng rng(seed);
  for (uint64_t p = 0; p < size; ++p) {
    out[1][p] = true;
    out[2][p] = p < size / 3;
    out[3][p] = p >= size - size / 4;
    out[4][p] = p >= size / 5 && p < size / 2 + 7;
    out[5][p] = p % 2 == 1;
    out[6][p] = rng.NextBool(0.02);
    out[7][p] = rng.NextBool(0.5);
    out[8][p] = rng.NextBool(0.97);
  }
  return out;
}

void ExpectMoveResult(const ValueBitmap& got,
                      const std::vector<uint64_t>& want, uint64_t size,
                      const std::string& what) {
  EXPECT_EQ(got.size(), size) << what;
  EXPECT_EQ(got.SetPositions(), want) << what;
  EXPECT_EQ(got.rep(), ChooseBitmapRep(want.size(), size, RunsOf(want)))
      << what;
  EXPECT_TRUE(got.Validate(size).ok()) << what << ": "
                                       << got.Validate(size).ToString();
}

TEST(CodecMoveKernels, SplitAndFilterMatchPositionOracle) {
  std::set<BitmapRep> reps_seen;
  for (uint64_t size : kMoveSizes) {
    std::vector<ValueBitmap> inputs = MoveInputs(size, size + 3);
    std::vector<std::vector<bool>> selections = MoveSelections(size, size);
    for (size_t si = 0; si < selections.size(); ++si) {
      const std::vector<bool>& sel = selections[si];
      WahBitmap sel_wah = WahBitmap::FromBools(sel);
      WahPositionFilter filter(sel_wah);
      const uint64_t kept_rows = sel_wah.CountOnes();
      for (const ValueBitmap& vb : inputs) {
        reps_seen.insert(vb.rep());
        // Oracle: walk the decoded positions, counting selected rows.
        std::vector<uint64_t> want_in, want_out;
        uint64_t rank = 0;
        size_t k = 0;
        std::vector<uint64_t> ones = vb.SetPositions();
        for (uint64_t p = 0; p < size; ++p) {
          bool set = k < ones.size() && ones[k] == p;
          if (set) ++k;
          if (sel[p]) {
            if (set) want_in.push_back(rank);
            ++rank;
          } else if (set) {
            want_out.push_back(p - rank);
          }
        }
        const std::string what = "size " + std::to_string(size) +
                                 " selection " + std::to_string(si) + " " +
                                 vb.ToString();
        auto [in, out] = CodecSplit(filter, vb);
        ExpectMoveResult(in, want_in, kept_rows, what + " (in)");
        ExpectMoveResult(out, want_out, size - kept_rows, what + " (out)");
        EXPECT_EQ(CodecFilter(filter, vb), in) << what;
      }
    }
  }
  EXPECT_EQ(reps_seen.size(), 3u);
}

TEST(CodecMoveKernels, ConcatMatchesPositionOracle) {
  for (uint64_t size_a : kMoveSizes) {
    for (uint64_t size_b : kMoveSizes) {
      for (const ValueBitmap& a : MoveInputs(size_a, size_a + 5)) {
        for (const ValueBitmap& b : MoveInputs(size_b, size_b + 11)) {
          std::vector<uint64_t> want = a.SetPositions();
          for (uint64_t p : b.SetPositions()) want.push_back(size_a + p);
          ExpectMoveResult(CodecConcat(a, b), want, size_a + size_b,
                           a.ToString() + " ++ " + b.ToString());
        }
      }
    }
  }
}

TEST(ValueBitmap, FromRawPartsRejectsNonCanonical) {
  // Wrong representation for the density: 3 ones in 4096 bits must be an
  // array, not a bitset.
  std::vector<uint64_t> words(kSweepSize / 64, 0);
  words[0] = 0b111;
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kBitset, kSweepSize, {},
                                         WahBitmap(), words)
                   .ok());
  // Unsorted positions.
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kArray, kSweepSize,
                                         {9, 3}, WahBitmap(), {})
                   .ok());
  // Out-of-range position.
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kArray, kSweepSize,
                                         {static_cast<uint32_t>(kSweepSize)},
                                         WahBitmap(), {})
                   .ok());
  // Bitset with nonzero slack bits above size.
  std::vector<uint64_t> slack(2, ~uint64_t{0});
  EXPECT_FALSE(ValueBitmap::FromRawParts(BitmapRep::kBitset, 100, {},
                                         WahBitmap(), slack)
                   .ok());
  // Clustered: 60 ones in one run are kWah (48 B) under the size rule,
  // though the density stage alone picks the array (240 B).
  const std::vector<uint32_t> run = RangePositions(100, 160);
  EXPECT_TRUE(ValueBitmap::FromRawParts(BitmapRep::kArray, kSweepSize, run,
                                        WahBitmap(), {})
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(ValueBitmap::FromRawParts(BitmapRep::kWah, kSweepSize, {},
                                        WahFromU32(run, kSweepSize), {})
                  .ok());
  // A canonical payload round-trips.
  std::vector<uint32_t> sparse = {1, 2, 3};
  EXPECT_TRUE(ValueBitmap::FromRawParts(BitmapRep::kArray, kSweepSize, sparse,
                                        WahBitmap(), {})
                  .ok());
}

TEST(ValueBitmap, FromLegacyRawPartsRechoosesDensityTags) {
  // The density stage's tag for clustered content loads, re-encoded into
  // the canonical container.
  const std::vector<uint32_t> run = RangePositions(100, 160);
  ValueBitmap from_array = ValueBitmap::FromLegacyRawParts(
                               BitmapRep::kArray, kSweepSize, run,
                               WahBitmap(), {})
                               .ValueOrDie();
  EXPECT_EQ(from_array.rep(), BitmapRep::kWah);
  EXPECT_EQ(from_array, ValueBitmap::FromPositions(run, kSweepSize));
  std::vector<uint64_t> block(kSweepSize / 64, 0);
  for (size_t w = 16; w < 48; ++w) block[w] = ~uint64_t{0};  // one run
  ValueBitmap from_bitset = ValueBitmap::FromLegacyRawParts(
                                BitmapRep::kBitset, kSweepSize, {},
                                WahBitmap(), block)
                                .ValueOrDie();
  EXPECT_EQ(from_bitset.rep(), BitmapRep::kWah);
  EXPECT_EQ(from_bitset,
            ValueBitmap::FromPositions(RangePositions(1024, 3072), kSweepSize));
  EXPECT_TRUE(from_bitset.Validate(kSweepSize).ok());
  // Canonical tags load unchanged; a tag neither stage picks is still
  // corruption, as are structural faults.
  EXPECT_EQ(ValueBitmap::FromLegacyRawParts(BitmapRep::kArray, kSweepSize,
                                            {1, 2, 3}, WahBitmap(), {})
                .ValueOrDie()
                .rep(),
            BitmapRep::kArray);
  std::vector<uint64_t> three(kSweepSize / 64, 0);
  three[0] = 0b111;
  EXPECT_TRUE(ValueBitmap::FromLegacyRawParts(BitmapRep::kBitset, kSweepSize,
                                              {}, WahBitmap(), three)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(ValueBitmap::FromLegacyRawParts(BitmapRep::kArray, kSweepSize,
                                              {9, 3}, WahBitmap(), {})
                  .status()
                  .IsCorruption());
}

// ---- Serde ---------------------------------------------------------------

TEST(CodecSerde, ValueBitmapRoundTripEveryRep) {
  for (const DensityClass& c : kClasses) {
    ValueBitmap vb = MakeRandom(kSweepSize, c.ones, 5 + c.ones);
    BinaryWriter w;
    WriteValueBitmap(vb, &w);
    BinaryReader r(w.buffer());
    ValueBitmap back = ReadValueBitmap(&r, kSweepSize).ValueOrDie();
    EXPECT_EQ(back, vb);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(CodecSerde, RejectsUnknownTag) {
  BinaryWriter w;
  w.U8(7);  // not a BitmapRep
  BinaryReader r(w.buffer());
  EXPECT_TRUE(ReadValueBitmap(&r, kSweepSize).status().IsCorruption());
}

TEST(CodecSerde, CatalogV3RoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(800, 40, 9)->WithName("X")).ok());
  std::vector<uint8_t> image = SerializeCatalogV3(catalog, /*wal_lsn=*/77);
  uint64_t lsn = 0;
  Catalog back = DeserializeCatalog(image, &lsn).ValueOrDie();
  EXPECT_EQ(lsn, 77u);
  for (const std::string& name : catalog.TableNames()) {
    ExpectSameContent(*catalog.GetTable(name).ValueOrDie(),
                      *back.GetTable(name).ValueOrDie());
  }
}

TEST(CodecSerde, OlderImageVersionsStayReadable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(500, 25, 3)).ok());
  for (std::vector<uint8_t> image :
       {SerializeCatalog(catalog), SerializeCatalogV2(catalog, 5)}) {
    Catalog back = DeserializeCatalog(image).ValueOrDie();
    ExpectSameContent(*catalog.GetTable("R").ValueOrDie(),
                      *back.GetTable("R").ValueOrDie());
    // Reloaded bitmaps land in their canonical codec representations.
    auto col = back.GetTable("R").ValueOrDie()->column(0);
    for (Vid v = 0; v < col->distinct_count(); ++v) {
      EXPECT_TRUE(col->bitmap(v).Validate(col->rows()).ok());
    }
  }
}

TEST(CodecSerde, V3ImageWithDensityRuleTagsLoadsCanonical) {
  // A v3 image as written while the rule was density-only: a column whose
  // value 0 is one run of 60 rows tagged kArray and whose value 1 (the
  // other 4036 rows, two runs) is tagged kBitset. Both are kWah now.
  const std::vector<uint32_t> run = RangePositions(100, 160);
  std::vector<uint64_t> rest(kSweepSize / 64, ~uint64_t{0});
  for (uint32_t p : run) rest[p / 64] &= ~(uint64_t{1} << (p % 64));
  BinaryWriter w;
  w.U32(kCodsFileMagic);
  w.U32(kCodsFileVersionV3);
  w.U32(1);  // tables
  w.Str("C");
  w.U64(kSweepSize);
  WriteSchema(Schema({{"c", DataType::kInt64, false}}, {}), &w);
  w.U8(static_cast<uint8_t>(DataType::kInt64));
  w.U8(0);  // bitmap column
  w.U64(kSweepSize);
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{1}));
  dict.GetOrInsert(Value(int64_t{2}));
  WriteDictionary(dict, &w);
  w.U32(2);  // value bitmaps
  w.U8(static_cast<uint8_t>(BitmapRep::kArray));
  w.U32(static_cast<uint32_t>(run.size()));
  for (uint32_t p : run) w.U32(p);
  w.U8(static_cast<uint8_t>(BitmapRep::kBitset));
  w.U32(static_cast<uint32_t>(rest.size()));
  for (uint64_t word : rest) w.U64(word);
  std::vector<uint8_t> image =
      ::cods::testing::WithImageFooter(w.TakeBuffer(), /*wal_lsn=*/8);

  uint64_t lsn = 0;
  Catalog back = DeserializeCatalog(image, &lsn).ValueOrDie();
  EXPECT_EQ(lsn, 8u);
  const Column& c = *back.GetTable("C").ValueOrDie()->column(0);
  EXPECT_EQ(c.bitmap(0).rep(), BitmapRep::kWah);
  EXPECT_EQ(c.bitmap(1).rep(), BitmapRep::kWah);
  EXPECT_EQ(c.bitmap(0), ValueBitmap::FromPositions(run, kSweepSize));
  EXPECT_EQ(c.bitmap(1).CountOnes(), kSweepSize - run.size());
  EXPECT_TRUE(c.ValidateInvariants().ok());
  // Re-saving writes the canonical tags, and that image is a fixed point.
  std::vector<uint8_t> resaved = SerializeCatalogV3(back, 8);
  EXPECT_NE(resaved, image);
  EXPECT_EQ(SerializeCatalogV3(DeserializeCatalog(resaved).ValueOrDie(), 8),
            resaved);
}

TEST(CodecSerde, V3BitFlipsAreDetected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(300, 17, 4)).ok());
  std::vector<uint8_t> image = SerializeCatalogV3(catalog, 123);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = image;
    size_t byte = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(bad.size()) - 1));
    bad[byte] ^= static_cast<uint8_t>(1u << rng.Uniform(0, 7));
    Result<Catalog> r = DeserializeCatalog(bad);
    // The footer CRC covers every preceding byte, so any single-bit
    // flip — header, payload, or the footer itself — must error.
    EXPECT_FALSE(r.ok()) << "flip at byte " << byte << " went undetected";
  }
}

TEST(CodecSerde, V3TruncationsAreDetected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::vector<uint8_t> image = SerializeCatalogV3(catalog, 9);
  for (size_t len = 0; len < image.size(); ++len) {
    std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    EXPECT_FALSE(DeserializeCatalog(prefix).ok()) << "prefix length " << len;
  }
}

// CountOnes is the popcount cached at construction: it must equal the
// decoded set-bit count in every representation, whichever constructor
// built the container.
TEST(CodecCountOnes, EqualsDecodedPopcountPerRepresentation) {
  for (const DensityClass& c : kClasses) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ValueBitmap vb = MakeRandom(kSweepSize, c.ones, seed * 7 + c.ones);
      ASSERT_EQ(vb.rep(), c.rep) << vb.ToString();
      const uint64_t decoded = vb.SetPositions().size();
      EXPECT_EQ(vb.CountOnes(), decoded) << vb.ToString();
      EXPECT_EQ(ValueBitmap::FromWah(vb.ToWah()).CountOnes(), decoded);
      EXPECT_EQ(vb.ToWah().CountOnes(), decoded);
      std::vector<uint64_t> words((kSweepSize + 63) / 64, 0);
      for (uint64_t p : vb.SetPositions()) {
        words[p / 64] |= uint64_t{1} << (p % 64);
      }
      EXPECT_EQ(ValueBitmap::FromDenseWords(std::move(words), kSweepSize)
                    .CountOnes(),
                decoded);
    }
  }
}

}  // namespace
}  // namespace cods
