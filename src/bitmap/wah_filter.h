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
/// read it a code word at a time: a fill needs two ranks, a literal or
/// bitset word the membership bits under it (Window63 / MemberWord). An
/// array container probes it per set bit. Filter() below is the
/// WAH-only reference (tests, bench_filter_ablation).
class WahPositionFilter {
 public:
  /// `positions` must be strictly increasing, all < domain.
  WahPositionFilter(const std::vector<uint64_t>& positions, uint64_t domain);

  /// Keeps the set bits of `selection`; the domain is selection.size().
  explicit WahPositionFilter(const WahBitmap& selection);

  /// Keeps the set bits of `(domain + 63) / 64` dense words, which become
  /// the index's membership bitset; bits at and above `domain` must be
  /// zero.
  static WahPositionFilter FromMemberWords(std::vector<uint64_t> words,
                                           uint64_t domain);

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

  /// Membership of the 63 positions [pos, pos + 63) as a WAH group
  /// payload: bit i is Contains(pos + i); positions at or past the
  /// domain read as zero. pos < domain.
  uint64_t Window63(uint64_t pos) const {
    CODS_DCHECK(pos < domain_);
    const size_t q = pos / 64;
    const unsigned r = pos % 64;
    uint64_t bits = member_words_[q] >> r;
    if (r > 1 && q + 1 < member_words_.size()) {
      bits |= member_words_[q + 1] << (64 - r);
    }
    return bits & wah::kPayloadMask;
  }

  /// Membership of the 64 positions [64 w, 64 w + 64): one dense word.
  uint64_t MemberWord(size_t w) const { return member_words_[w]; }

  uint64_t domain() const { return domain_; }
  uint64_t num_positions() const { return num_positions_; }

 private:
  WahPositionFilter() = default;
  void IndexRanks();

  uint64_t domain_ = 0;
  uint64_t num_positions_ = 0;
  std::vector<uint64_t> member_words_;  // membership bitset over [0,domain)
  std::vector<uint64_t> rank_prefix_;   // ranks before each 64-bit word
};

}  // namespace cods

#endif  // CODS_BITMAP_WAH_FILTER_H_
