#include "storage/column.h"

#include "common/logging.h"

namespace cods {

std::shared_ptr<Column> Column::FromValueBitmaps(
    DataType type, Dictionary dict, std::vector<ValueBitmap> bitmaps,
    uint64_t rows) {
  CODS_CHECK(bitmaps.size() == dict.size())
      << "bitmap count " << bitmaps.size() << " != dictionary size "
      << dict.size();
  auto col = std::shared_ptr<Column>(new Column());
  col->type_ = type;
  col->rows_ = rows;
  col->dict_ = std::move(dict);
  col->bitmaps_ = std::move(bitmaps);
  return col;
}

Value Column::GetValue(uint64_t row) const {
  CODS_CHECK(row < rows_);
  for (Vid vid = 0; vid < bitmaps_.size(); ++vid) {
    if (bitmaps_[vid].Get(row)) return dict_.value(vid);
  }
  CODS_CHECK(false) << "row " << row << " not covered by any bitmap";
  return Value();
}

uint64_t Column::SizeBytes() const {
  uint64_t bytes = dict_.SizeBytes();
  for (const ValueBitmap& bm : bitmaps_) bytes += bm.SizeBytes();
  return bytes;
}

}  // namespace cods
