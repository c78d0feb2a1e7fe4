// Size-adaptive per-value bitmap codec (Roaring-style containers).
//
// A dictionary column stores one bitmap per distinct value, and their
// shapes span orders of magnitude: in a high-cardinality dictionary
// most values mark a handful of rows (the bitmap is almost all zero
// fill), a skewed column has a few values covering most rows, and a
// sorted or clustered column has values that mark one long run each.
// One representation cannot be optimal for all of them, so
// `ValueBitmap` picks one of three per value:
//
//   * kArray  — sorted uint32_t positions, for sparse scattered values.
//               AND/OR become galloping sorted-set merges over just the
//               set positions; filter, split and concat push positions.
//   * kWah    — the paper's WAH runs (bitmap/wah_bitmap.h), for the
//               mixed regime, for clustered values (a WAH fill *is* a
//               run, so a sorted column's values are single-fill
//               bitmaps: the paper's run-length encoding of sorted
//               columns, §2.2), and as the interchange form every
//               kernel can produce and consume.
//   * kBitset — raw uint64_t words, for dense scattered values. AND/OR/
//               count are word-parallel loops the compiler
//               auto-vectorizes; std::popcount does the counting.
//
// Determinism contract (extends the canonical-form contract of
// WahBitmap): the representation is a pure function of
// (popcount, size, runs) — ChooseBitmapRep — and every constructor
// routes through it, so two ValueBitmaps holding the same row set are
// representation-identical no matter which thread count or code path
// built them. Equality therefore stays a payload comparison, and the
// staged-commit / parallel-build bit-identity proofs carry over
// unchanged.
//
// Every container caches its popcount; CountOnes is O(1) everywhere
// (these are the exact histograms the cost advisor and the future
// planner read).

#ifndef CODS_BITMAP_CODEC_H_
#define CODS_BITMAP_CODEC_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/wah_bitmap.h"
#include "common/logging.h"
#include "common/result.h"

namespace cods {

class WahPositionFilter;

/// The three container kinds. Values are the serde v3 wire tags.
enum class BitmapRep : uint8_t { kArray = 0, kWah = 1, kBitset = 2 };

const char* BitmapRepName(BitmapRep rep);

/// The deterministic size rule. Pure in (ones, size, runs), where
/// `runs` is the number of maximal runs of set bits. First the density
/// choice:
///   * homogeneous (ones == 0 or ones == size) -> kWah: one fill word
///     beats both an empty position list's header and a solid bitset;
///   * ones <= size/64 -> kArray: 4 bytes per position is at most half
///     the bitset's bytes, and kernels touch only set positions;
///   * ones >= (size+3)/4 -> kBitset: at >= 25% density WAH literals
///     dominate anyway, so drop to raw words and vectorize;
///   * otherwise -> kWah.
/// Then, when the density choice is kArray or kBitset, kWah replaces it
/// iff WahBoundBytes(runs) is strictly smaller than that container's
/// bytes (4 per position, or the bitset's words): clustered values are
/// stored as fills, scattered ones keep their container. Positions are
/// stored as uint32_t, so bitmaps longer than 2^32 bits never choose
/// kArray.
BitmapRep ChooseBitmapRep(uint64_t ones, uint64_t size, uint64_t runs);

/// Upper bound on the bytes of a canonical WAH bitmap with `runs` runs
/// of set bits: per run at most a zero fill, two boundary literals and a
/// one fill, plus a trailing zero fill and the active tail group.
constexpr uint64_t WahBoundBytes(uint64_t runs) { return 8 * (4 * runs + 2); }

/// Process-wide codec observability (cods_shell `.stats`). Relaxed
/// atomics: counts are advisory, never synchronization.
struct CodecStats {
  std::atomic<uint64_t> array_built{0};
  std::atomic<uint64_t> wah_built{0};
  std::atomic<uint64_t> bitset_built{0};
};
CodecStats& GlobalCodecStats();

/// One per-value bitmap behind the size-adaptive codec.
class ValueBitmap {
 public:
  /// Empty bitmap (zero bits), kWah representation.
  ValueBitmap() = default;

  ValueBitmap(const ValueBitmap&) = default;
  ValueBitmap& operator=(const ValueBitmap&) = default;
  ValueBitmap(ValueBitmap&&) noexcept = default;
  ValueBitmap& operator=(ValueBitmap&&) noexcept = default;

  /// Wraps a WAH bitmap, re-encoding into the container ChooseBitmapRep
  /// picks.
  static ValueBitmap FromWah(WahBitmap wah);

  /// Builds from strictly increasing set positions (< size). A WAH
  /// result of clustered content (the density stage picked kArray or
  /// kBitset) is appended run by run, never through a size-proportional
  /// scratch.
  static ValueBitmap FromPositions(std::vector<uint32_t> positions,
                                   uint64_t size);

  /// Builds from `(size + 63) / 64` dense words; bits at and above
  /// `size` must be zero.
  static ValueBitmap FromDenseWords(std::vector<uint64_t> words,
                                    uint64_t size);

  /// Persistence path: reassembles from a representation tag and its raw
  /// payload (exactly one of the three payloads is non-empty, matching
  /// `rep`). Validates structural soundness AND that `rep` is the one
  /// ChooseBitmapRep picks for the payload — a foreign or corrupted image
  /// cannot smuggle in a non-canonical container.
  static Result<ValueBitmap> FromRawParts(BitmapRep rep, uint64_t size,
                                          std::vector<uint32_t> positions,
                                          WahBitmap wah,
                                          std::vector<uint64_t> words);

  /// FromRawParts for images written while the rule was density-only:
  /// a tag that only the density stage of ChooseBitmapRep picks is
  /// accepted too, and its payload re-encoded into the canonical
  /// container. A tag neither picks is still Corruption.
  static Result<ValueBitmap> FromLegacyRawParts(
      BitmapRep rep, uint64_t size, std::vector<uint32_t> positions,
      WahBitmap wah, std::vector<uint64_t> words);

  // ---- Inspection ------------------------------------------------------

  BitmapRep rep() const { return rep_; }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// O(1): cached at construction for every representation.
  uint64_t CountOnes() const { return ones_; }
  bool IsAllZeros() const { return ones_ == 0; }
  bool IsAllOnes() const { return ones_ == size_; }

  /// Value of the bit at `pos`. O(log ones) for kArray, O(1) for
  /// kBitset, O(words) for kWah.
  bool Get(uint64_t pos) const;

  /// Position of the first set bit, or size() if none.
  uint64_t FirstSetBit() const;

  /// Positions of all set bits, increasing.
  std::vector<uint64_t> SetPositions() const;

  /// Calls `fn(uint64_t pos)` for each set bit in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    switch (rep_) {
      case BitmapRep::kArray:
        for (uint32_t p : positions_) fn(static_cast<uint64_t>(p));
        return;
      case BitmapRep::kWah: {
        // Walks the code words directly: a literal's bits, a 1-fill's run.
        uint64_t base = 0;
        auto literal = [&](uint64_t bits) {
          for (; bits != 0; bits &= bits - 1) {
            fn(base + static_cast<uint64_t>(std::countr_zero(bits)));
          }
        };
        for (uint64_t w : wah_.words()) {
          if (!wah::IsFill(w)) {
            literal(wah::Literal(w));
            base += kWahGroupBits;
            continue;
          }
          const uint64_t end = base + wah::FillGroups(w) * kWahGroupBits;
          for (; wah::FillValue(w) && base < end; ++base) fn(base);
          base = end;
        }
        literal(wah_.tail());
        return;
      }
      case BitmapRep::kBitset:
        for (size_t w = 0; w < words_.size(); ++w) {
          uint64_t word = words_[w];
          while (word != 0) {
            fn(w * 64 + static_cast<uint64_t>(std::countr_zero(word)));
            word &= word - 1;
          }
        }
        return;
    }
  }

  /// Re-encodes into the canonical WAH interchange form.
  WahBitmap ToWah() const;

  /// Bytes of the active container's payload.
  uint64_t SizeBytes() const;

  /// Bytes a raw bitset of this size would take (the `.stats`
  /// compression-ratio denominator).
  uint64_t DenseSizeBytes() const { return ((size_ + 63) / 64) * 8; }

  /// Content equality. Because the representation is a pure function of
  /// content, this compares rep + payload directly.
  bool Equals(const ValueBitmap& other) const;
  friend bool operator==(const ValueBitmap& a, const ValueBitmap& b) {
    return a.Equals(b);
  }

  std::string ToString() const;

  /// Structural + canonical-form check (ValidateInvariants, serde):
  /// expected size, in-range sorted-unique positions / zeroed bitset
  /// slack, cached popcount consistent, representation the one
  /// ChooseBitmapRep mandates for the payload's (ones, size, runs).
  Status Validate(uint64_t expected_size) const;

  // ---- Payload accessors (kernels, serde) ------------------------------

  const std::vector<uint32_t>& array_positions() const {
    CODS_DCHECK(rep_ == BitmapRep::kArray);
    return positions_;
  }
  const WahBitmap& wah() const {
    CODS_DCHECK(rep_ == BitmapRep::kWah);
    return wah_;
  }
  const std::vector<uint64_t>& bitset_words() const {
    CODS_DCHECK(rep_ == BitmapRep::kBitset);
    return words_;
  }

 private:
  // UNION's concatenation picks the container from its inputs' counts
  // before building it.
  friend ValueBitmap CodecConcat(const ValueBitmap& a, const ValueBitmap& b);

  // Build the container `rep`, already chosen by the rule for this
  // content, from positions / a WAH bitmap.
  static ValueBitmap PositionsAs(BitmapRep rep,
                                 std::vector<uint32_t> positions,
                                 uint64_t size);
  static ValueBitmap WahAs(BitmapRep rep, WahBitmap wah);

  static Result<ValueBitmap> Assemble(BitmapRep rep, uint64_t size,
                                      std::vector<uint32_t> positions,
                                      WahBitmap wah,
                                      std::vector<uint64_t> words,
                                      bool accept_density_rep);

  BitmapRep rep_ = BitmapRep::kWah;
  uint64_t size_ = 0;
  uint64_t ones_ = 0;
  std::vector<uint32_t> positions_;  // kArray: sorted set positions
  WahBitmap wah_;                    // kWah
  std::vector<uint64_t> words_;      // kBitset: (size+63)/64 words
};

// ---- Kernels (specialized per representation pair) -----------------------
//
// All pairwise kernels require a.size() == b.size(). Results are
// ValueBitmaps in their own rule-chosen representation; the *Wah
// variants produce canonical WAH directly for callers on the interchange
// form (query selections).

ValueBitmap CodecAnd(const ValueBitmap& a, const ValueBitmap& b);
ValueBitmap CodecOr(const ValueBitmap& a, const ValueBitmap& b);
ValueBitmap CodecNot(const ValueBitmap& a);

/// |a & b| without materializing — the GROUP BY / join-classification
/// histogram kernel: galloping for array pairs, word-AND + popcount for
/// bitset pairs, run-walks against WAH.
uint64_t CodecAndCount(const ValueBitmap& a, const ValueBitmap& b);

/// a & selection as canonical WAH (the WHERE-narrowing path).
WahBitmap CodecAndWah(const ValueBitmap& a, const WahBitmap& selection);

/// |a & selection| without materializing.
uint64_t CodecAndCountWah(const ValueBitmap& a, const WahBitmap& selection);

/// k-way union over value bitmaps into canonical WAH (EvalLeafBitmap:
/// the per-predicate OR over qualifying values). All-WAH operand sets
/// take the single-pass heap merge; any array/bitset operand switches to
/// a dense word accumulator (scatter for arrays, word-OR for bitsets,
/// run-deposit for WAH) re-encoded canonically, so the result is
/// bit-identical either way.
WahBitmap CodecOrManyWah(const std::vector<const ValueBitmap*>& operands,
                         uint64_t size);

/// k-way union into `(size + 63) / 64` dense words: PARTITION's
/// selection, indexed as a WahPositionFilter without a WAH round trip.
std::vector<uint64_t> CodecOrManyDense(
    const std::vector<const ValueBitmap*>& operands, uint64_t size);

/// Count-only k-way union (the ValidateInvariants coverage check).
uint64_t CodecOrManyCount(const std::vector<const ValueBitmap*>& operands,
                          uint64_t size);

// ---- Data movement (PARTITION, UNION, DECOMPOSE, SELECT, JOIN) -----------
//
// These move set bits in one pass over the input's own container and
// build each output once, in the container its exact popcount and run
// count pick. Split and filter walk WAH and bitset inputs a code word at
// a time: a fill becomes one run per side, a literal group or bitset word
// goes whole to the side its membership bits pick, or is compressed
// through them; each side is appended as WAH and stored by FromWah.
// Array inputs route (split) or shift (concat) their positions.

/// PARTITION's bitmap filtering: splits vb by the filter's selection in
/// one pass over its code words (WAH, bitset) or positions (array).
/// `first` holds the selected bits re-based onto the selected rows
/// (length filter.num_positions()): set bit p lands at Rank(p). `second`
/// holds the rest re-based onto the complement's rows: p lands at
/// p - Rank(p).
std::pair<ValueBitmap, ValueBitmap> CodecSplit(const WahPositionFilter& filter,
                                               const ValueBitmap& vb);

/// The one-sided CodecSplit, `first` only: the row-subset projection of
/// DECOMPOSE, SELECT and JOIN.
ValueBitmap CodecFilter(const WahPositionFilter& filter,
                        const ValueBitmap& vb);

/// UNION's concatenation: a's bits followed by b's, length
/// a.size() + b.size(). The container is chosen before anything is
/// built: the popcount is the sum of the inputs', and the run count is
/// the sum of theirs less one when a's last bit and b's first bit are
/// both set (counted only when the density stage does not already pick
/// kWah). An array result is a's positions then b's shifted by
/// a.size(); any other result appends b's WAH form to a's
/// (WahBitmap::Concat, which splices code words).
ValueBitmap CodecConcat(const ValueBitmap& a, const ValueBitmap& b);

}  // namespace cods

#endif  // CODS_BITMAP_CODEC_H_
