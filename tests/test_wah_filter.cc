// Tests for position-list filtering on compressed bitmaps — the
// "bitmap filtering" primitive of the decomposition operator.

#include "bitmap/wah_filter.h"

#include "common/random.h"
#include "gtest/gtest.h"

namespace cods {
namespace {

WahBitmap RandomWah(uint64_t size, double density, uint64_t seed) {
  Rng rng(seed);
  WahBitmap bm;
  for (uint64_t i = 0; i < size; ++i) bm.AppendBit(rng.NextBool(density));
  return bm;
}

TEST(WahFilter, EmptyPositionList) {
  WahBitmap src = RandomWah(1000, 0.5, 1);
  WahBitmap out = WahFilterPositions(src, {});
  EXPECT_EQ(out.size(), 0u);
}

TEST(WahFilter, SingletonPositions) {
  WahBitmap src = WahBitmap::FromPositions({10, 20}, 100);
  EXPECT_EQ(WahFilterPositions(src, {10}).SetPositions(),
            (std::vector<uint64_t>{0}));
  EXPECT_EQ(WahFilterPositions(src, {11}).CountOnes(), 0u);
  EXPECT_EQ(WahFilterPositions(src, {99}).CountOnes(), 0u);
}

TEST(WahFilter, IdentityWhenAllPositionsTaken) {
  WahBitmap src = RandomWah(500, 0.3, 2);
  std::vector<uint64_t> all(500);
  for (uint64_t i = 0; i < 500; ++i) all[i] = i;
  EXPECT_EQ(WahFilterPositions(src, all), src);
}

TEST(WahFilter, PicksBitsInsideFills) {
  WahBitmap src;
  src.AppendRun(false, 1000);
  src.AppendRun(true, 1000);
  src.AppendRun(false, 1000);
  WahBitmap out = WahFilterPositions(src, {500, 1500, 2500});
  EXPECT_EQ(out.ToBools(), (std::vector<bool>{false, true, false}));
}

TEST(WahFilter, OutputLengthEqualsPositionCount) {
  WahBitmap src = RandomWah(10000, 0.01, 3);
  std::vector<uint64_t> positions;
  for (uint64_t i = 0; i < 10000; i += 7) positions.push_back(i);
  WahBitmap out = WahFilterPositions(src, positions);
  EXPECT_EQ(out.size(), positions.size());
}

TEST(WahFilterDeath, PositionPastEndIsFatal) {
  WahBitmap src = RandomWah(100, 0.5, 4);
  EXPECT_DEATH(WahFilterPositions(src, {100}), "past the bitmap");
}

TEST(WahGather, UnsortedPositionsAllowed) {
  WahBitmap src = WahBitmap::FromPositions({1, 3, 5}, 10);
  WahBitmap out = WahGatherPositions(src, {5, 0, 1, 1, 3});
  EXPECT_EQ(out.ToBools(),
            (std::vector<bool>{true, false, true, true, true}));
}

TEST(WahGather, SortedInputMatchesFilter) {
  WahBitmap src = RandomWah(5000, 0.2, 5);
  std::vector<uint64_t> positions;
  for (uint64_t i = 3; i < 5000; i += 11) positions.push_back(i);
  EXPECT_EQ(WahGatherPositions(src, positions),
            WahFilterPositions(src, positions));
}

TEST(WahPositionFilter, ContainsAndRank) {
  std::vector<uint64_t> positions = {0, 5, 63, 64, 999};
  WahPositionFilter filter(positions, 1000);
  EXPECT_EQ(filter.num_positions(), 5u);
  for (size_t i = 0; i < positions.size(); ++i) {
    EXPECT_TRUE(filter.Contains(positions[i]));
    EXPECT_EQ(filter.Rank(positions[i]), i);
  }
  EXPECT_FALSE(filter.Contains(1));
  EXPECT_FALSE(filter.Contains(998));
}

TEST(WahPositionFilter, MatchesStreamingFilter) {
  Rng rng(31);
  WahBitmap src = RandomWah(20000, 0.15, 6);
  std::vector<uint64_t> positions;
  for (uint64_t i = 0; i < 20000; ++i) {
    if (rng.NextBool(0.1)) positions.push_back(i);
  }
  WahPositionFilter filter(positions, 20000);
  EXPECT_EQ(filter.Filter(src), WahFilterPositions(src, positions));
}

TEST(WahPositionFilter, SelectionBuiltMatchesPositionsBuilt) {
  for (uint64_t size : {0, 1, 63, 64, 65, 127, 4095, 65537}) {
    for (double density : {0.0, 0.01, 0.5, 1.0}) {
      Rng rng(size + 17);
      std::vector<uint64_t> positions;
      for (uint64_t i = 0; i < size; ++i) {
        // A clustered stretch exercises the selection's 1-fills.
        bool clustered = i >= size / 3 && i < size / 3 + 200;
        if (clustered || rng.NextBool(density)) positions.push_back(i);
      }
      WahPositionFilter by_positions(positions, size);
      WahPositionFilter by_selection(WahBitmap::FromPositions(positions, size));
      ASSERT_EQ(by_selection.domain(), size);
      ASSERT_EQ(by_selection.num_positions(), positions.size());
      for (uint64_t p = 0; p <= size; ++p) {
        ASSERT_EQ(by_selection.Rank(p), by_positions.Rank(p)) << p;
        if (p < size) {
          ASSERT_EQ(by_selection.Contains(p), by_positions.Contains(p)) << p;
        }
      }
    }
  }
}

TEST(WahPositionFilter, EmptyPositionList) {
  WahPositionFilter filter({}, 100);
  WahBitmap src = RandomWah(100, 0.5, 7);
  EXPECT_EQ(filter.Filter(src).size(), 0u);
}

TEST(WahPositionFilterDeath, DomainMismatchIsFatal) {
  WahPositionFilter filter({1}, 10);
  WahBitmap src = RandomWah(11, 0.5, 8);
  EXPECT_DEATH(filter.Filter(src), "filter domain");
  EXPECT_DEATH(WahPositionFilter({10}, 10), "outside domain");
}

// ---- Property sweep: filter output must equal naive per-position reads.

struct FilterParam {
  uint64_t size;
  double density;
  uint64_t stride;
};

class WahFilterProperty : public ::testing::TestWithParam<FilterParam> {};

TEST_P(WahFilterProperty, MatchesNaiveGather) {
  const FilterParam p = GetParam();
  WahBitmap src = RandomWah(p.size, p.density, p.size + p.stride);
  Rng rng(p.size * 3 + 1);
  std::vector<uint64_t> positions;
  for (uint64_t i = rng.Uniform(0, static_cast<int64_t>(p.stride));
       i < p.size; i += p.stride) {
    positions.push_back(i);
  }
  WahBitmap out = WahFilterPositions(src, positions);
  ASSERT_EQ(out.size(), positions.size());
  std::vector<bool> expected;
  expected.reserve(positions.size());
  for (uint64_t pos : positions) expected.push_back(src.Get(pos));
  EXPECT_EQ(out.ToBools(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WahFilterProperty,
    ::testing::Values(FilterParam{100, 0.5, 1}, FilterParam{1000, 0.5, 3},
                      FilterParam{1000, 0.01, 2}, FilterParam{1000, 0.99, 7},
                      FilterParam{63 * 100, 0.0, 5},
                      FilterParam{63 * 100, 1.0, 5},
                      FilterParam{50000, 0.001, 13},
                      FilterParam{50000, 0.3, 63},
                      FilterParam{50000, 0.5, 1000}),
    [](const ::testing::TestParamInfo<FilterParam>& info) {
      return "n" + std::to_string(info.param.size) + "_d" +
             std::to_string(static_cast<int>(info.param.density * 1000)) +
             "_s" + std::to_string(info.param.stride);
    });

}  // namespace
}  // namespace cods
