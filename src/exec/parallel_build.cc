#include "exec/parallel_build.h"

#include <atomic>
#include <tuple>

#include "bitmap/codec.h"
#include "common/logging.h"
#include "storage/table.h"

namespace cods {

namespace {

// Serial reference: one ordered scan, maximal equal-value runs append as
// single fills. Used verbatim for the chunk-local partial builds.
void ScanIntoBuilders(const Vid* vid_of_row, uint64_t lo, uint64_t hi,
                      uint64_t base, std::vector<WahBitmap>* builders) {
  for (uint64_t r = lo; r < hi;) {
    Vid v = vid_of_row[r];
    uint64_t end = r + 1;
    while (end < hi && vid_of_row[end] == v) ++end;
    CODS_DCHECK(v < builders->size());
    WahBitmap& bm = (*builders)[v];
    bm.AppendRun(false, (r - base) - bm.size());
    bm.AppendRun(true, end - r);
    r = end;
  }
}

}  // namespace

std::vector<WahBitmap> BuildValueBitmaps(const ExecContext& ctx,
                                         const Vid* vid_of_row,
                                         uint64_t rows, uint64_t num_values) {
  std::vector<WahBitmap> out(num_values);
  if (rows == 0) return out;

  // Pick a chunk size: ~4 chunks per thread, 63-group-aligned so the
  // final concatenation splices code words, and capped so the transient
  // partial-builder matrix (num_chunks × num_values headers) stays small
  // even for very high-cardinality columns.
  const uint64_t threads = static_cast<uint64_t>(ctx.num_threads());
  uint64_t num_chunks = threads * 4;
  constexpr uint64_t kMaxPartialHeaders = uint64_t{1} << 22;
  if (num_values > 0 && num_chunks > kMaxPartialHeaders / num_values) {
    num_chunks = kMaxPartialHeaders / num_values;
  }
  if (num_chunks < 2 || ctx.serial() || rows < 4 * kWahGroupBits * threads) {
    ScanIntoBuilders(vid_of_row, 0, rows, 0, &out);
    for (WahBitmap& bm : out) bm.AppendRun(false, rows - bm.size());
    return out;
  }
  uint64_t chunk = (rows + num_chunks - 1) / num_chunks;
  chunk = (chunk + kWahGroupBits - 1) / kWahGroupBits * kWahGroupBits;
  num_chunks = (rows + chunk - 1) / chunk;

  std::vector<std::vector<WahBitmap>> partials(num_chunks);
  Status st = ParallelFor(
      ctx, 0, num_chunks, 1, [&](uint64_t c) -> Status {
        uint64_t lo = c * chunk;
        uint64_t hi = lo + chunk < rows ? lo + chunk : rows;
        std::vector<WahBitmap> local(num_values);
        ScanIntoBuilders(vid_of_row, lo, hi, lo, &local);
        // Pad every builder to the chunk length so the concatenation
        // below needs no per-chunk bookkeeping.
        for (WahBitmap& bm : local) bm.AppendRun(false, (hi - lo) - bm.size());
        partials[c] = std::move(local);
        return Status::OK();
      });
  CODS_CHECK(st.ok()) << st.ToString();
  st = ParallelFor(ctx, 0, num_values, 64, [&](uint64_t v) -> Status {
    for (uint64_t c = 0; c < num_chunks; ++c) {
      out[v].Concat(partials[c][v]);
    }
    return Status::OK();
  });
  CODS_CHECK(st.ok()) << st.ToString();
  return out;
}

std::shared_ptr<const Column> FilterColumnBitmaps(
    const ExecContext& ctx, const Column& column,
    const WahPositionFilter& filter, std::shared_ptr<const Column>* rest) {
  std::vector<ValueBitmap> filtered(column.distinct_count());
  std::vector<ValueBitmap> dropped(rest != nullptr ? filtered.size() : 0);
  // Grain 1: ParallelFor still chunks by ~4 per thread, and a column of a
  // few values (each a large bitmap) spreads over every thread.
  Status st =
      ParallelFor(ctx, 0, column.distinct_count(), 1, [&](uint64_t v) {
        const ValueBitmap& vb = column.bitmap(static_cast<Vid>(v));
        if (rest != nullptr) {
          std::tie(filtered[v], dropped[v]) = CodecSplit(filter, vb);
        } else {
          filtered[v] = CodecFilter(filter, vb);
        }
        return Status::OK();
      });
  CODS_CHECK(st.ok()) << st.ToString();
  if (rest != nullptr) {
    *rest = Column::FromValueBitmaps(column.type(), column.dict(),
                                     std::move(dropped),
                                     filter.domain() - filter.num_positions());
  }
  return std::shared_ptr<const Column>(
      Column::FromValueBitmaps(column.type(), column.dict(),
                               std::move(filtered), filter.num_positions()));
}

// ---------------------------------------------------------------------------
// Exec-using members of storage::Column. Column sits below exec in the
// layering, so its header only forward-declares ExecContext and the
// definitions that actually run on the parallel runtime live here.
// ---------------------------------------------------------------------------

namespace {

// Re-encodes freshly built WAH bitmaps into their rule-chosen codec
// containers, one task per value. The per-vid results land in pre-sized
// index-ordered slots and the representation choice is a pure function
// of content, so the conversion is bit-identical at every thread count.
std::vector<ValueBitmap> EncodeValueBitmaps(const ExecContext& ctx,
                                            std::vector<WahBitmap> wahs) {
  std::vector<ValueBitmap> out(wahs.size());
  Status st = ParallelFor(ctx, 0, wahs.size(), 16, [&](uint64_t v) {
    out[v] = ValueBitmap::FromWah(std::move(wahs[v]));
    return Status::OK();
  });
  CODS_CHECK(st.ok()) << st.ToString();
  return out;
}

}  // namespace

std::shared_ptr<Column> Column::FromVids(DataType type, Dictionary dict,
                                         const std::vector<Vid>& vids,
                                         const ExecContext* ctx) {
  auto col = std::shared_ptr<Column>(new Column());
  col->type_ = type;
  col->rows_ = vids.size();
  const ExecContext& exec = ResolveContext(ctx);
  col->bitmaps_ = EncodeValueBitmaps(
      exec, BuildValueBitmaps(exec, vids.data(), vids.size(), dict.size()));
  col->dict_ = std::move(dict);
  return col;
}

std::shared_ptr<Column> Column::FromBitmaps(DataType type, Dictionary dict,
                                            std::vector<WahBitmap> bitmaps,
                                            uint64_t rows,
                                            const ExecContext* ctx) {
  CODS_CHECK(bitmaps.size() == dict.size())
      << "bitmap count " << bitmaps.size() << " != dictionary size "
      << dict.size();
  return FromValueBitmaps(
      type, std::move(dict),
      EncodeValueBitmaps(ResolveContext(ctx), std::move(bitmaps)), rows);
}

std::vector<Vid> Column::DecodeVids(const ExecContext* ctx) const {
  std::vector<Vid> out(rows_, 0);
  // Value bitmaps partition the row set, so the per-vid writes target
  // disjoint positions — safe to run concurrently, identical result.
  Status st = ParallelFor(
      ResolveContext(ctx), 0, bitmaps_.size(), 16, [&](uint64_t vid) {
        bitmaps_[vid].ForEachSetBit(
            [&](uint64_t pos) { out[pos] = static_cast<Vid>(vid); });
        return Status::OK();
      });
  CODS_CHECK(st.ok()) << st.ToString();
  return out;
}

Status Table::ValidateInvariants(const ExecContext* ctx) const {
  if (columns_.size() != schema_.num_columns()) {
    return Status::Corruption("schema arity mismatch");
  }
  // Per-column validation is independent; ParallelFor returns the first
  // failing column in schema order, matching the serial walk.
  ExecContext exec = ResolveContext(ctx);
  return ParallelFor(exec, 0, columns_.size(), 1, [&](uint64_t i) -> Status {
    if (columns_[i]->rows() != rows_) {
      return Status::Corruption("column row count mismatch in '" +
                                schema_.column(i).name + "'");
    }
    return columns_[i]->ValidateInvariants(&exec).WithContext(
        "column '" + schema_.column(i).name + "'");
  });
}

Status Column::ValidateInvariants(const ExecContext* ctx) const {
  if (bitmaps_.size() != dict_.size()) {
    return Status::Corruption("bitmap count != dictionary size");
  }
  // Per-bitmap structural + canonical-representation check and popcount,
  // parallel over value bitmaps. The sum is order-independent, so a
  // relaxed atomic accumulation stays deterministic.
  std::atomic<uint64_t> ones{0};
  CODS_RETURN_NOT_OK(ParallelForChunked(
      ResolveContext(ctx), 0, bitmaps_.size(), 16,
      [&](uint64_t lo, uint64_t hi) -> Status {
        uint64_t local = 0;
        for (uint64_t v = lo; v < hi; ++v) {
          CODS_RETURN_NOT_OK(bitmaps_[v].Validate(rows_));
          local += bitmaps_[v].CountOnes();
        }
        ones.fetch_add(local, std::memory_order_relaxed);
        return Status::OK();
      }));
  uint64_t total_ones = ones.load(std::memory_order_relaxed);
  if (total_ones != rows_) {
    return Status::Corruption("bitmaps do not partition rows: " +
                              std::to_string(total_ones) + " ones over " +
                              std::to_string(rows_) + " rows");
  }
  // Coverage = |union of all value bitmaps|, computed by the count-only
  // k-way codec kernel in one pass — the union bitmap is never
  // materialized.
  std::vector<const ValueBitmap*> ptrs;
  ptrs.reserve(bitmaps_.size());
  for (const ValueBitmap& bm : bitmaps_) ptrs.push_back(&bm);
  if (CodecOrManyCount(ptrs, rows_) != rows_) {
    return Status::Corruption("bitmaps overlap or leave gaps");
  }
  return Status::OK();
}

}  // namespace cods
