// Bitmap-indexed column (CODS §2.2): a column with v distinct values over
// r rows is stored as a dictionary plus v bit vectors of length r —
// vector k has bit j set iff row j holds value k. Each bit vector is held
// behind the size-adaptive codec (bitmap/codec.h): sparse scattered
// values as sorted position arrays, mixed and clustered ones as the
// paper's WAH runs, dense scattered ones as raw bitset words, chosen
// deterministically per value. A sorted column needs no encoding of its
// own: each of its values is one run, which the codec stores as a
// single WAH fill — the run-length encoding of §2.2.
//
// Columns are immutable once built and shared between tables via
// shared_ptr: reusing an unchanged column during evolution (Property 1 of
// §2.4) is a pointer copy, exactly the effect the paper exploits.

#ifndef CODS_STORAGE_COLUMN_H_
#define CODS_STORAGE_COLUMN_H_

#include <memory>
#include <vector>

#include "bitmap/codec.h"
#include "bitmap/wah_bitmap.h"
#include "common/result.h"
#include "storage/dictionary.h"
#include "storage/value.h"

namespace cods {

// The parallel build/decode/validate members take an execution context
// but storage sits below exec in the layering: the context is only ever
// passed through by pointer, and the exec-using member definitions live
// in exec/parallel_build.cc, one layer up.
class ExecContext;

/// An immutable column of one table.
class Column {
 public:
  /// Builds a column from a row-ordered vid sequence. The
  /// bitmap compression runs on `ctx` (nullptr: default context); the
  /// result is bit-identical at every thread count.
  static std::shared_ptr<Column> FromVids(DataType type, Dictionary dict,
                                          const std::vector<Vid>& vids,
                                          const ExecContext* ctx = nullptr);

  /// Builds directly from prepared WAH bitmaps (used by the evolution
  /// operators, which emit compressed bitmaps natively on the WAH
  /// interchange form). Each bitmap is re-encoded into its rule-chosen
  /// codec container (on `ctx` when given — bit-identical either way,
  /// since the representation choice is a pure function of content).
  /// Every bitmap must have length `rows`, and each row must be covered
  /// by exactly one bitmap (checked lazily by ValidateInvariants).
  static std::shared_ptr<Column> FromBitmaps(DataType type, Dictionary dict,
                                             std::vector<WahBitmap> bitmaps,
                                             uint64_t rows,
                                             const ExecContext* ctx = nullptr);

  /// Builds from already codec-encoded value bitmaps (the position-filter
  /// and persistence paths, whose kernels produce ValueBitmaps natively).
  static std::shared_ptr<Column> FromValueBitmaps(
      DataType type, Dictionary dict, std::vector<ValueBitmap> bitmaps,
      uint64_t rows);

  DataType type() const { return type_; }
  uint64_t rows() const { return rows_; }
  const Dictionary& dict() const { return dict_; }
  size_t distinct_count() const { return dict_.size(); }

  /// The codec-encoded bitmap of value id `vid`.
  const ValueBitmap& bitmap(Vid vid) const {
    CODS_DCHECK(vid < bitmaps_.size());
    return bitmaps_[vid];
  }
  /// All value bitmaps, indexed by vid.
  const std::vector<ValueBitmap>& bitmaps() const { return bitmaps_; }

  /// Decodes the column into a row-ordered vid vector.
  /// Cost: O(rows + compressed words); bitmap decoding parallelizes over
  /// value bitmaps (their set positions are disjoint).
  std::vector<Vid> DecodeVids(const ExecContext* ctx = nullptr) const;

  /// Value at `row` (point lookup; O(compressed words) — use DecodeVids
  /// for scans).
  Value GetValue(uint64_t row) const;

  /// Number of rows holding `vid` (the bitmap's cached popcount).
  uint64_t ValueCount(Vid vid) const { return bitmap(vid).CountOnes(); }

  /// Compressed footprint of the value bitmaps plus the dictionary.
  uint64_t SizeBytes() const;

  /// Verifies structural invariants: every bitmap has length rows(); the
  /// bitmaps partition the row set (each row covered exactly once); the
  /// dictionary and bitmap count agree. O(distinct * compressed words);
  /// the per-bitmap checks parallelize over value bitmaps.
  Status ValidateInvariants(const ExecContext* ctx = nullptr) const;

 private:
  Column() = default;

  DataType type_ = DataType::kInt64;
  Dictionary dict_;
  std::vector<ValueBitmap> bitmaps_;  // indexed by vid
  uint64_t rows_ = 0;
};

}  // namespace cods

#endif  // CODS_STORAGE_COLUMN_H_
