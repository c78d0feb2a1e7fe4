// "Bitmap filtering" (CODS §2.4, step 2): shrink a bitmap by keeping only
// the bits at a sorted list of positions. This is the core primitive of
// the decomposition operator — the new table's bitmaps are produced
// directly from the old table's compressed bitmaps, without decompressing
// either side: fills translate to runs in the output, and only literal
// groups that actually contain probed positions are touched.

#ifndef CODS_BITMAP_WAH_FILTER_H_
#define CODS_BITMAP_WAH_FILTER_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "bitmap/wah_bitmap.h"

namespace cods {

/// Returns a bitmap B' of length positions.size() with
/// B'[j] = src[positions[j]].
///
/// `positions` must be strictly increasing and every element must be
/// < src.size(). Runs in O(#code words of src + positions.size()).
WahBitmap WahFilterPositions(const WahBitmap& src,
                             const std::vector<uint64_t>& positions);

/// Returns a bitmap of length `row_count` whose bit r is src[take[r]],
/// where `take` need NOT be sorted (gather). Costs one pass over the
/// compressed words per *sorted run* of take; used by tests as a
/// reference and by the general mergence for small inputs.
WahBitmap WahGatherPositions(const WahBitmap& src,
                             const std::vector<uint64_t>& take);

/// Rank index over a set of kept positions, shared by every bitmap
/// filtered or split by the SAME selection (decomposition filters every
/// bitmap of every generated column by one distinction list; PARTITION
/// splits every bitmap of the table by one selection).
///
/// The index is the membership bitset over [0, domain) plus the rank
/// before each 64-bit word (O(domain/64) space), so a probe is O(1): a
/// kept position's new index is Rank(p), a dropped one's index in the
/// complement is p - Rank(p), and one index serves both sides of a
/// split. The codec kernels CodecFilter / CodecSplit (bitmap/codec.h)
/// probe it per set bit of any container; Filter() below is the
/// WAH-only reference (tests, bench_filter_ablation).
class WahPositionFilter {
 public:
  /// `positions` must be strictly increasing, all < domain.
  WahPositionFilter(const std::vector<uint64_t>& positions, uint64_t domain);

  /// Keeps the set bits of `selection`; the domain is selection.size().
  explicit WahPositionFilter(const WahBitmap& selection);

  /// Returns B' of length positions.size() with B'[j] = src[positions[j]].
  /// src.size() must equal the domain.
  WahBitmap Filter(const WahBitmap& src) const;

  /// True if `pos` is in the position list.
  bool Contains(uint64_t pos) const {
    CODS_DCHECK(pos < domain_);
    return (member_words_[pos / 64] >> (pos % 64)) & 1;
  }

  /// Number of kept positions below `pos` (pos <= domain): the index of
  /// a kept `pos` in the position list.
  uint64_t Rank(uint64_t pos) const {
    CODS_DCHECK(pos <= domain_);
    uint64_t r = rank_prefix_[pos / 64];
    if (pos % 64 != 0) {
      r += static_cast<uint64_t>(std::popcount(
          member_words_[pos / 64] & ((uint64_t{1} << (pos % 64)) - 1)));
    }
    return r;
  }

  uint64_t domain() const { return domain_; }
  uint64_t num_positions() const { return num_positions_; }

 private:
  void IndexRanks();

  uint64_t domain_ = 0;
  uint64_t num_positions_ = 0;
  std::vector<uint64_t> member_words_;  // membership bitset over [0,domain)
  std::vector<uint64_t> rank_prefix_;   // ranks before each 64-bit word
};

}  // namespace cods

#endif  // CODS_BITMAP_WAH_FILTER_H_
