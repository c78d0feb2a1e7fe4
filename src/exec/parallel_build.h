// Parallel construction of a column's value bitmaps from a row → vid
// mapping — the shape shared by Column::FromVids, the mergence append
// step and the general mergence's output build: scan rows in order,
// append each row's bit to the builder of its value.
//
// The serial scan has a per-value sequential dependency (appends must
// arrive in increasing positions), so the parallel version splits the
// row range into group-aligned chunks, builds one partial builder set
// per chunk with chunk-relative positions, then concatenates the
// partials per value in chunk order. WahBitmap's canonical form
// guarantees the concatenation is bit-identical to the serial build:
// equal logical content implies equal code words.

#ifndef CODS_EXEC_PARALLEL_BUILD_H_
#define CODS_EXEC_PARALLEL_BUILD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/wah_bitmap.h"
#include "bitmap/wah_filter.h"
#include "exec/exec.h"
#include "storage/column.h"
#include "storage/dictionary.h"

namespace cods {

/// Builds `num_values` WAH bitmaps of `rows` bits each, where bitmap
/// `vid_of_row[r]` has bit r set (exactly one value per row; every
/// vid_of_row[r] < num_values). Maximal runs of rows mapping to the same
/// value append as a single fill. Bit-identical at every thread count.
std::vector<WahBitmap> BuildValueBitmaps(const ExecContext& ctx,
                                         const Vid* vid_of_row,
                                         uint64_t rows, uint64_t num_values);

/// Shrinks every value bitmap of `column` through `filter` (one task per
/// vid) and rebuilds the column at filter.num_positions() rows — the
/// position-filtering shape shared by SELECT, JOIN and DECOMPOSE. With
/// `rest` (PARTITION TABLE), each bitmap is split instead (CodecSplit)
/// and *rest receives the complement's column; both keep the full
/// dictionary. Bit-identical at every thread count.
std::shared_ptr<const Column> FilterColumnBitmaps(
    const ExecContext& ctx, const Column& column,
    const WahPositionFilter& filter,
    std::shared_ptr<const Column>* rest = nullptr);

}  // namespace cods

#endif  // CODS_EXEC_PARALLEL_BUILD_H_
