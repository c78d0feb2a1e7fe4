#include "bitmap/codec.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "bitmap/wah_filter.h"
#include "bitmap/wah_ops.h"

namespace cods {

namespace {

inline uint64_t LowBits(uint64_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

inline uint64_t DenseWordCount(uint64_t size) { return (size + 63) / 64; }

// 63-bit group window helpers over a dense word array. A WAH group at
// index g occupies bits [63g, 63g + 63) and straddles at most two words.

inline uint64_t Extract63(const uint64_t* words, size_t nwords,
                          uint64_t bit_off) {
  size_t q = bit_off >> 6;
  unsigned r = bit_off & 63;
  if (q >= nwords) return 0;
  uint64_t lo = words[q] >> r;
  if (r != 0 && q + 1 < nwords) lo |= words[q + 1] << (64 - r);
  return lo & wah::kPayloadMask;
}

inline void Deposit63(uint64_t* words, size_t nwords, uint64_t bit_off,
                      uint64_t payload) {
  size_t q = bit_off >> 6;
  unsigned r = bit_off & 63;
  words[q] |= payload << r;
  if (r != 0 && q + 1 < nwords) words[q + 1] |= payload >> (64 - r);
}

// Clears, within the 63-bit window at bit_off, the bits that are zero in
// `payload` (dense &= literal group).
inline void MaskGroup63(uint64_t* words, size_t nwords, uint64_t bit_off,
                        uint64_t payload) {
  uint64_t inv = (~payload) & wah::kPayloadMask;
  size_t q = bit_off >> 6;
  unsigned r = bit_off & 63;
  words[q] &= ~(inv << r);
  if (r != 0 && q + 1 < nwords) words[q + 1] &= ~(inv >> (64 - r));
}

// Sets the dense bits in [start, end).
void FillRange(uint64_t* words, uint64_t start, uint64_t end) {
  if (start >= end) return;
  size_t qs = start >> 6, qe = (end - 1) >> 6;
  uint64_t first = ~uint64_t{0} << (start & 63);
  uint64_t last = LowBits(((end - 1) & 63) + 1);
  if (qs == qe) {
    words[qs] |= first & last;
    return;
  }
  words[qs] |= first;
  for (size_t q = qs + 1; q < qe; ++q) words[q] = ~uint64_t{0};
  words[qe] |= last;
}

// Clears the dense bits in [start, end).
void ZeroRange(uint64_t* words, uint64_t start, uint64_t end) {
  if (start >= end) return;
  size_t qs = start >> 6, qe = (end - 1) >> 6;
  uint64_t first = ~uint64_t{0} << (start & 63);
  uint64_t last = LowBits(((end - 1) & 63) + 1);
  if (qs == qe) {
    words[qs] &= ~(first & last);
    return;
  }
  words[qs] &= ~first;
  for (size_t q = qs + 1; q < qe; ++q) words[q] = 0;
  words[qe] &= ~last;
}

// Popcount of the dense bits in [start, end).
uint64_t CountRange(const uint64_t* words, uint64_t start, uint64_t end) {
  if (start >= end) return 0;
  size_t qs = start >> 6, qe = (end - 1) >> 6;
  uint64_t first = ~uint64_t{0} << (start & 63);
  uint64_t last = LowBits(((end - 1) & 63) + 1);
  if (qs == qe) {
    return static_cast<uint64_t>(std::popcount(words[qs] & first & last));
  }
  uint64_t ones = static_cast<uint64_t>(std::popcount(words[qs] & first));
  for (size_t q = qs + 1; q < qe; ++q) {
    ones += static_cast<uint64_t>(std::popcount(words[q]));
  }
  ones += static_cast<uint64_t>(std::popcount(words[qe] & last));
  return ones;
}

uint64_t CountWords(const std::vector<uint64_t>& words) {
  uint64_t ones = 0;
  for (uint64_t w : words) ones += static_cast<uint64_t>(std::popcount(w));
  return ones;
}

// Canonical WAH encode of a dense word span, one 63-bit group per step
// (AppendRun for homogeneous groups, AppendBits otherwise — both O(1)
// per group, and the canonical append API coalesces adjacent fills), so
// the output is representation-identical to any other canonical producer
// of the same content. Group-wise beats run-wise here: a dense random
// span has ~2-bit runs, and per-run appends made this the bottleneck of
// every kernel that re-encodes a dense accumulator.
WahBitmap DenseToWah(const uint64_t* words, uint64_t size) {
  WahBitmap out;
  size_t nwords = (size + 63) / 64;
  uint64_t pos = 0;
  for (; pos + kWahGroupBits <= size; pos += kWahGroupBits) {
    uint64_t payload = Extract63(words, nwords, pos);
    if (payload == 0) {
      out.AppendRun(false, kWahGroupBits);
    } else if (payload == wah::kPayloadMask) {
      out.AppendRun(true, kWahGroupBits);
    } else {
      out.AppendBits(payload, kWahGroupBits);
    }
  }
  if (pos < size) out.AppendBits(Extract63(words, nwords, pos), size - pos);
  return out;
}

// Expands a WAH bitmap's set bits into pre-zeroed dense words (OR
// semantics: existing bits survive).
void OrWahIntoDense(const WahBitmap& wah, uint64_t* words, size_t nwords) {
  WahDecoder dec(wah);
  uint64_t offset = 0;
  while (!dec.exhausted()) {
    if (dec.is_fill()) {
      uint64_t span = dec.remaining_groups() * kWahGroupBits;
      if (dec.fill_value()) {
        uint64_t end = std::min(offset + span, wah.size());
        FillRange(words, offset, end);
      }
      offset += span;
      dec.Consume(dec.remaining_groups());
    } else {
      Deposit63(words, nwords, offset, dec.group_payload());
      offset += kWahGroupBits;
      dec.Consume(1);
    }
  }
}

// dense &= wah (0-fills clear ranges, literals mask groups).
void AndWahIntoDense(const WahBitmap& wah, uint64_t* words, size_t nwords) {
  WahDecoder dec(wah);
  uint64_t offset = 0;
  while (!dec.exhausted()) {
    if (dec.is_fill()) {
      uint64_t span = dec.remaining_groups() * kWahGroupBits;
      if (!dec.fill_value()) {
        uint64_t end = std::min(offset + span, wah.size());
        ZeroRange(words, offset, end);
      }
      offset += span;
      dec.Consume(dec.remaining_groups());
    } else {
      MaskGroup63(words, nwords, offset, dec.group_payload());
      offset += kWahGroupBits;
      dec.Consume(1);
    }
  }
}

// |wah & dense| on the compressed walk: 1-fills popcount a dense range,
// literal groups popcount payload & window.
uint64_t CountWahAndDense(const WahBitmap& wah, const uint64_t* words,
                          size_t nwords) {
  WahDecoder dec(wah);
  uint64_t offset = 0, ones = 0;
  while (!dec.exhausted()) {
    if (dec.is_fill()) {
      uint64_t span = dec.remaining_groups() * kWahGroupBits;
      if (dec.fill_value()) {
        uint64_t end = std::min(offset + span, wah.size());
        ones += CountRange(words, offset, end);
      }
      offset += span;
      dec.Consume(dec.remaining_groups());
    } else {
      ones += static_cast<uint64_t>(std::popcount(
          dec.group_payload() & Extract63(words, nwords, offset)));
      offset += kWahGroupBits;
      dec.Consume(1);
    }
  }
  return ones;
}

// Galloping lower-bound: exponential probe from `from`, then binary
// search inside the bracketing window.
size_t GallopTo(const std::vector<uint32_t>& v, size_t from, uint32_t x) {
  size_t offset = 1, lo = from;
  while (from + offset < v.size() && v[from + offset] < x) {
    lo = from + offset;
    offset <<= 1;
  }
  size_t hi = std::min(from + offset + 1, v.size());
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<long>(lo),
                       v.begin() + static_cast<long>(hi), x) -
      v.begin());
}

// Sorted-set intersection; galloping when one side is much smaller.
// `emit(pos)` is called for each common position in increasing order.
template <typename Emit>
void IntersectArrays(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b, Emit&& emit) {
  const std::vector<uint32_t>* small = &a;
  const std::vector<uint32_t>* large = &b;
  if (small->size() > large->size()) std::swap(small, large);
  if (small->size() * 8 < large->size()) {
    size_t j = 0;
    for (uint32_t x : *small) {
      j = GallopTo(*large, j, x);
      if (j == large->size()) break;
      if ((*large)[j] == x) emit(x);
    }
    return;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      emit(x);
      ++i;
      ++j;
    }
  }
}

// Walks sorted positions against a WAH bitmap's runs, emitting the
// positions whose bit is set. Shared by the AND-materialize and
// AND-count array×WAH kernels.
template <typename Emit>
void IntersectPositionsWithWah(const std::vector<uint32_t>& positions,
                               const WahBitmap& wah, Emit&& emit) {
  WahDecoder dec(wah);
  uint64_t offset = 0;
  size_t i = 0;
  const size_t n = positions.size();
  while (!dec.exhausted() && i < n) {
    if (dec.is_fill()) {
      uint64_t end = offset + dec.remaining_groups() * kWahGroupBits;
      if (dec.fill_value()) {
        while (i < n && positions[i] < end) emit(positions[i++]);
      } else if (end > positions[i]) {
        i = GallopTo(positions, i,
                     end > UINT32_MAX ? UINT32_MAX
                                      : static_cast<uint32_t>(end));
        // GallopTo finds the first position >= end except when end
        // saturates; positions are < 2^32 so saturation only occurs
        // past the last one.
        if (end > UINT32_MAX) i = n;
      }
      offset = end;
      dec.Consume(dec.remaining_groups());
    } else {
      uint64_t payload = dec.group_payload();
      uint64_t end = offset + kWahGroupBits;
      while (i < n && positions[i] < end) {
        if ((payload >> (positions[i] - offset)) & 1) emit(positions[i]);
        ++i;
      }
      offset = end;
      dec.Consume(1);
    }
  }
}

// Thread-local dense accumulator for the k-way union kernels; reused
// across calls so steady-state fan-outs stop allocating.
std::vector<uint64_t>& DenseScratch() {
  thread_local std::vector<uint64_t> scratch;
  return scratch;
}

void OrOperandIntoDense(const ValueBitmap& vb, uint64_t* words,
                        size_t nwords) {
  switch (vb.rep()) {
    case BitmapRep::kArray:
      for (uint32_t p : vb.array_positions()) {
        words[p >> 6] |= uint64_t{1} << (p & 63);
      }
      return;
    case BitmapRep::kWah:
      OrWahIntoDense(vb.wah(), words, nwords);
      return;
    case BitmapRep::kBitset: {
      const std::vector<uint64_t>& src = vb.bitset_words();
      for (size_t i = 0; i < src.size(); ++i) words[i] |= src[i];
      return;
    }
  }
}

// Accumulates the union of all operands into the thread-local dense
// scratch; returns the scratch. Shared by CodecOrManyWah / -Count.
std::vector<uint64_t>& AccumulateUnion(
    const std::vector<const ValueBitmap*>& operands, uint64_t size) {
  std::vector<uint64_t>& acc = DenseScratch();
  acc.assign(DenseWordCount(size), 0);
  for (const ValueBitmap* vb : operands) {
    CODS_DCHECK(vb->size() == size);
    if (vb->IsAllZeros()) continue;
    OrOperandIntoDense(*vb, acc.data(), acc.size());
  }
  return acc;
}

bool AllWah(const std::vector<const ValueBitmap*>& operands) {
  for (const ValueBitmap* vb : operands) {
    if (vb->rep() != BitmapRep::kWah) return false;
  }
  return true;
}

WahBitmap MakeWahFill(bool value, uint64_t size) {
  WahBitmap bm;
  bm.AppendRun(value, size);
  return bm;
}

ValueBitmap AllZeros(uint64_t size) {
  return ValueBitmap::FromWah(MakeWahFill(false, size));
}

// ---- The representation rule ----------------------------------------------

// The density stage of ChooseBitmapRep.
BitmapRep DensityRep(uint64_t ones, uint64_t size) {
  CODS_DCHECK(ones <= size);
  if (ones == 0 || ones == size) return BitmapRep::kWah;
  if (size <= (uint64_t{1} << 32) && ones <= size / 64) {
    return BitmapRep::kArray;
  }
  if (ones >= (size + 3) / 4) return BitmapRep::kBitset;
  return BitmapRep::kWah;
}

// ChooseBitmapRep with the run count computed on demand:
// `count_runs(limit)` is called only when the density stage picks kArray
// or kBitset, and only has to count up to `limit` — the fewest runs whose
// WahBoundBytes is no longer smaller than that container — so scattered
// content stops counting early and mixed content never counts.
template <typename CountRunsFn>
BitmapRep ChooseRep(uint64_t ones, uint64_t size, CountRunsFn&& count_runs) {
  const BitmapRep density = DensityRep(ones, size);
  if (density == BitmapRep::kWah) return density;
  const uint64_t density_bytes = density == BitmapRep::kArray
                                     ? ones * sizeof(uint32_t)
                                     : DenseWordCount(size) * sizeof(uint64_t);
  // WahBoundBytes(runs) = 32 * runs + 16 < density_bytes
  // <=>  runs < ceil((density_bytes - 16) / 32) = limit.
  static_assert(WahBoundBytes(0) == 16 && WahBoundBytes(1) == 48);
  const uint64_t limit =
      density_bytes <= 16 ? 0 : (density_bytes - 16 + 31) / 32;
  return count_runs(limit) < limit ? BitmapRep::kWah : density;
}

// End (exclusive) of the run of consecutive positions that starts at i.
// Positions strictly increase, so [i, j) is one run iff
// p[j - 1] - p[i] == j - 1 - i: gallop, then bisect — O(log length) per
// run, O(1) for an isolated position.
size_t RunEnd(const std::vector<uint32_t>& p, size_t i) {
  size_t in = i, out = p.size();  // p[in] is in the run; out is past it
  for (size_t step = 1; i + step < p.size(); step <<= 1) {
    if (p[i + step] - p[i] != step) {
      out = i + step;
      break;
    }
    in = i + step;
  }
  while (out - in > 1) {
    const size_t mid = in + (out - in) / 2;
    (p[mid] - p[i] == mid - i ? in : out) = mid;
  }
  return in + 1;
}

// Maximal runs of set bits, counted per container. Each returns the exact
// count when it is below `limit`, and some count >= `limit` otherwise.

uint64_t CountPositionRuns(const std::vector<uint32_t>& positions,
                           uint64_t limit) {
  uint64_t runs = 0;
  for (size_t i = 0; i < positions.size() && runs < limit;
       i = RunEnd(positions, i)) {
    ++runs;
  }
  return runs;
}

// Run starts: set bits of `bits` whose lower neighbour is clear; `carry`
// is the bit just below bit 0.
inline uint64_t RunStarts(uint64_t bits, uint64_t carry) {
  return static_cast<uint64_t>(std::popcount(bits & ~((bits << 1) | carry)));
}

uint64_t CountDenseRuns(const std::vector<uint64_t>& words, uint64_t limit) {
  uint64_t runs = 0, carry = 0;
  for (size_t i = 0; i < words.size() && runs < limit; ++i) {
    runs += RunStarts(words[i], carry);
    carry = words[i] >> 63;
  }
  return runs;
}

uint64_t CountWahRuns(const WahBitmap& wah, uint64_t limit) {
  uint64_t runs = 0, carry = 0;  // carry: the previous group's last bit
  for (size_t i = 0; i < wah.words().size() && runs < limit; ++i) {
    const uint64_t w = wah.words()[i];
    if (wah::IsFill(w)) {
      const uint64_t value = wah::FillValue(w) ? 1 : 0;
      runs += value & ~carry;
      carry = value;
    } else {
      const uint64_t bits = wah::Literal(w);
      runs += RunStarts(bits, carry);
      carry = bits >> (kWahGroupBits - 1);
    }
  }
  return runs + RunStarts(wah.tail(), carry);
}

uint64_t CountRuns(const ValueBitmap& vb, uint64_t limit) {
  switch (vb.rep()) {
    case BitmapRep::kArray:
      return CountPositionRuns(vb.array_positions(), limit);
    case BitmapRep::kWah:
      return CountWahRuns(vb.wah(), limit);
    case BitmapRep::kBitset:
      return CountDenseRuns(vb.bitset_words(), limit);
  }
  return 0;
}

// Canonical WAH of strictly increasing positions, one zero run and one
// one run appended per run of positions (found by RunEnd): O(runs) appends
// and no scratch.
WahBitmap WahFromPositions(const std::vector<uint32_t>& positions,
                           uint64_t size) {
  WahBitmap out;
  for (size_t i = 0; i < positions.size();) {
    const size_t j = RunEnd(positions, i);
    out.AppendRun(false, positions[i] - out.size());
    out.AppendRun(true, j - i);
    i = j;
  }
  out.AppendRun(false, size - out.size());
  return out;
}

}  // namespace

const char* BitmapRepName(BitmapRep rep) {
  switch (rep) {
    case BitmapRep::kArray:
      return "array";
    case BitmapRep::kWah:
      return "wah";
    case BitmapRep::kBitset:
      return "bitset";
  }
  return "?";
}

BitmapRep ChooseBitmapRep(uint64_t ones, uint64_t size, uint64_t runs) {
  return ChooseRep(ones, size, [runs](uint64_t) { return runs; });
}

CodecStats& GlobalCodecStats() {
  static CodecStats stats;
  return stats;
}

// ---- ValueBitmap construction --------------------------------------------

ValueBitmap ValueBitmap::WahAs(BitmapRep rep, WahBitmap wah) {
  ValueBitmap vb;
  vb.rep_ = rep;
  vb.size_ = wah.size();
  vb.ones_ = wah.CountOnes();
  switch (rep) {
    case BitmapRep::kArray: {
      vb.positions_.reserve(vb.ones_);
      WahSetBitIterator it(wah);
      uint64_t pos;
      while (it.Next(&pos)) {
        vb.positions_.push_back(static_cast<uint32_t>(pos));
      }
      GlobalCodecStats().array_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case BitmapRep::kWah:
      vb.wah_ = std::move(wah);
      GlobalCodecStats().wah_built.fetch_add(1, std::memory_order_relaxed);
      break;
    case BitmapRep::kBitset: {
      vb.words_.assign(DenseWordCount(vb.size_), 0);
      OrWahIntoDense(wah, vb.words_.data(), vb.words_.size());
      GlobalCodecStats().bitset_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  return vb;
}

ValueBitmap ValueBitmap::FromWah(WahBitmap wah) {
  const BitmapRep rep = ChooseRep(wah.CountOnes(), wah.size(),
                                  [&wah](uint64_t limit) {
                                    return CountWahRuns(wah, limit);
                                  });
  return WahAs(rep, std::move(wah));
}

ValueBitmap ValueBitmap::PositionsAs(BitmapRep rep,
                                     std::vector<uint32_t> positions,
                                     uint64_t size) {
  ValueBitmap vb;
  vb.rep_ = rep;
  vb.size_ = size;
  vb.ones_ = positions.size();
  switch (rep) {
    case BitmapRep::kArray:
      vb.positions_ = std::move(positions);
      GlobalCodecStats().array_built.fetch_add(1, std::memory_order_relaxed);
      break;
    case BitmapRep::kWah:
      if (vb.ones_ == 0 || vb.ones_ == size) {
        vb.wah_ = MakeWahFill(vb.ones_ != 0, size);
      } else if (DensityRep(vb.ones_, size) == BitmapRep::kWah) {
        // Mixed density (ones > size/64): scatter, then one canonical
        // encode a group at a time — cheaper than an append per run when
        // runs are short, and the scratch's size/64 words are fewer than
        // the ones.
        std::vector<uint64_t> words(DenseWordCount(size), 0);
        for (uint32_t p : positions) words[p >> 6] |= uint64_t{1} << (p & 63);
        vb.wah_ = DenseToWah(words.data(), size);
      } else {
        // Clustered: few runs, so append them run by run. A
        // size-proportional scratch here would dominate every PARTITION
        // of a sorted column.
        vb.wah_ = WahFromPositions(positions, size);
      }
      GlobalCodecStats().wah_built.fetch_add(1, std::memory_order_relaxed);
      break;
    case BitmapRep::kBitset: {
      vb.words_.assign(DenseWordCount(size), 0);
      for (uint32_t p : positions) {
        vb.words_[p >> 6] |= uint64_t{1} << (p & 63);
      }
      GlobalCodecStats().bitset_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  return vb;
}

ValueBitmap ValueBitmap::FromPositions(std::vector<uint32_t> positions,
                                       uint64_t size) {
  const BitmapRep rep =
      ChooseRep(positions.size(), size,
                [&positions](uint64_t limit) {
                  return CountPositionRuns(positions, limit);
                });
  return PositionsAs(rep, std::move(positions), size);
}

ValueBitmap ValueBitmap::FromDenseWords(std::vector<uint64_t> words,
                                        uint64_t size) {
  CODS_DCHECK(words.size() == DenseWordCount(size));
  ValueBitmap vb;
  vb.size_ = size;
  vb.ones_ = CountWords(words);
  vb.rep_ = ChooseRep(vb.ones_, size,
                      [&words](uint64_t limit) {
                        return CountDenseRuns(words, limit);
                      });
  switch (vb.rep_) {
    case BitmapRep::kArray: {
      vb.positions_.reserve(vb.ones_);
      for (size_t w = 0; w < words.size(); ++w) {
        uint64_t word = words[w];
        while (word != 0) {
          vb.positions_.push_back(static_cast<uint32_t>(
              w * 64 + static_cast<uint64_t>(std::countr_zero(word))));
          word &= word - 1;
        }
      }
      GlobalCodecStats().array_built.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case BitmapRep::kWah:
      vb.wah_ = DenseToWah(words.data(), size);
      GlobalCodecStats().wah_built.fetch_add(1, std::memory_order_relaxed);
      break;
    case BitmapRep::kBitset:
      vb.words_ = std::move(words);
      GlobalCodecStats().bitset_built.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return vb;
}

Result<ValueBitmap> ValueBitmap::Assemble(BitmapRep rep, uint64_t size,
                                          std::vector<uint32_t> positions,
                                          WahBitmap wah,
                                          std::vector<uint64_t> words,
                                          bool accept_density_rep) {
  ValueBitmap vb;
  vb.rep_ = rep;
  vb.size_ = size;
  switch (rep) {
    case BitmapRep::kArray: {
      uint32_t prev = 0;
      for (size_t i = 0; i < positions.size(); ++i) {
        if (positions[i] >= size || (i > 0 && positions[i] <= prev)) {
          return Status::Corruption(
              "array container positions not strictly increasing in range");
        }
        prev = positions[i];
      }
      vb.ones_ = positions.size();
      vb.positions_ = std::move(positions);
      break;
    }
    case BitmapRep::kWah:
      if (wah.size() != size) {
        return Status::Corruption("WAH container size mismatch");
      }
      vb.ones_ = wah.CountOnes();
      vb.wah_ = std::move(wah);
      break;
    case BitmapRep::kBitset: {
      if (words.size() != DenseWordCount(size)) {
        return Status::Corruption("bitset container word count mismatch");
      }
      if (size % 64 != 0 && !words.empty() &&
          (words.back() & ~LowBits(size % 64)) != 0) {
        return Status::Corruption("bitset container has bits beyond size");
      }
      vb.ones_ = CountWords(words);
      vb.words_ = std::move(words);
      break;
    }
    default:
      return Status::Corruption("unknown bitmap representation tag");
  }
  const BitmapRep canonical =
      ChooseRep(vb.ones_, size,
                [&vb](uint64_t limit) { return CountRuns(vb, limit); });
  if (canonical == rep) return vb;
  // The run stage only ever replaces the density choice by kWah.
  if (accept_density_rep && DensityRep(vb.ones_, size) == rep) {
    return WahAs(canonical, vb.ToWah());
  }
  return Status::Corruption(
      std::string("non-canonical bitmap representation: ") +
      BitmapRepName(rep) + " holding " + std::to_string(vb.ones_) + "/" +
      std::to_string(size) + " bits");
}

Result<ValueBitmap> ValueBitmap::FromRawParts(BitmapRep rep, uint64_t size,
                                              std::vector<uint32_t> positions,
                                              WahBitmap wah,
                                              std::vector<uint64_t> words) {
  return Assemble(rep, size, std::move(positions), std::move(wah),
                  std::move(words), /*accept_density_rep=*/false);
}

Result<ValueBitmap> ValueBitmap::FromLegacyRawParts(
    BitmapRep rep, uint64_t size, std::vector<uint32_t> positions,
    WahBitmap wah, std::vector<uint64_t> words) {
  return Assemble(rep, size, std::move(positions), std::move(wah),
                  std::move(words), /*accept_density_rep=*/true);
}

// ---- ValueBitmap inspection ----------------------------------------------

bool ValueBitmap::Get(uint64_t pos) const {
  CODS_DCHECK(pos < size_);
  switch (rep_) {
    case BitmapRep::kArray:
      return std::binary_search(positions_.begin(), positions_.end(),
                                static_cast<uint32_t>(pos));
    case BitmapRep::kWah:
      return wah_.Get(pos);
    case BitmapRep::kBitset:
      return (words_[pos / 64] >> (pos % 64)) & 1;
  }
  return false;
}

uint64_t ValueBitmap::FirstSetBit() const {
  switch (rep_) {
    case BitmapRep::kArray:
      return positions_.empty() ? size_ : positions_.front();
    case BitmapRep::kWah:
      return wah_.FirstSetBit();
    case BitmapRep::kBitset:
      for (size_t w = 0; w < words_.size(); ++w) {
        if (words_[w] != 0) {
          return w * 64 + static_cast<uint64_t>(std::countr_zero(words_[w]));
        }
      }
      return size_;
  }
  return size_;
}

std::vector<uint64_t> ValueBitmap::SetPositions() const {
  std::vector<uint64_t> out;
  out.reserve(ones_);
  ForEachSetBit([&out](uint64_t pos) { out.push_back(pos); });
  return out;
}

WahBitmap ValueBitmap::ToWah() const {
  switch (rep_) {
    case BitmapRep::kArray: {
      WahBitmap out;
      for (uint32_t p : positions_) out.AppendSetBit(p);
      out.AppendRun(false, size_ - out.size());
      return out;
    }
    case BitmapRep::kWah:
      return wah_;
    case BitmapRep::kBitset:
      return DenseToWah(words_.data(), size_);
  }
  return WahBitmap();
}

uint64_t ValueBitmap::SizeBytes() const {
  switch (rep_) {
    case BitmapRep::kArray:
      return positions_.size() * sizeof(uint32_t);
    case BitmapRep::kWah:
      return wah_.SizeBytes();
    case BitmapRep::kBitset:
      return words_.size() * sizeof(uint64_t);
  }
  return 0;
}

bool ValueBitmap::Equals(const ValueBitmap& other) const {
  if (rep_ != other.rep_ || size_ != other.size_ || ones_ != other.ones_) {
    return false;
  }
  switch (rep_) {
    case BitmapRep::kArray:
      return positions_ == other.positions_;
    case BitmapRep::kWah:
      return wah_ == other.wah_;
    case BitmapRep::kBitset:
      return words_ == other.words_;
  }
  return false;
}

std::string ValueBitmap::ToString() const {
  std::ostringstream out;
  out << BitmapRepName(rep_) << "(" << ones_ << "/" << size_ << ")";
  return out.str();
}

Status ValueBitmap::Validate(uint64_t expected_size) const {
  if (size_ != expected_size) {
    return Status::Corruption("value bitmap covers " + std::to_string(size_) +
                              " rows, expected " +
                              std::to_string(expected_size));
  }
  switch (rep_) {
    case BitmapRep::kArray: {
      uint32_t prev = 0;
      for (size_t i = 0; i < positions_.size(); ++i) {
        if (positions_[i] >= size_ || (i > 0 && positions_[i] <= prev)) {
          return Status::Corruption("array container positions invalid");
        }
        prev = positions_[i];
      }
      if (ones_ != positions_.size()) {
        return Status::Corruption("array container popcount mismatch");
      }
      break;
    }
    case BitmapRep::kWah:
      if (wah_.size() != size_ || wah_.CountOnes() != ones_) {
        return Status::Corruption("WAH container popcount mismatch");
      }
      break;
    case BitmapRep::kBitset: {
      if (words_.size() != DenseWordCount(size_)) {
        return Status::Corruption("bitset container word count mismatch");
      }
      if (size_ % 64 != 0 && !words_.empty() &&
          (words_.back() & ~LowBits(size_ % 64)) != 0) {
        return Status::Corruption("bitset container has bits beyond size");
      }
      if (ones_ != CountWords(words_)) {
        return Status::Corruption("bitset container popcount mismatch");
      }
      break;
    }
  }
  if (ChooseRep(ones_, size_, [this](uint64_t limit) {
        return CountRuns(*this, limit);
      }) != rep_) {
    return Status::Corruption(
        std::string("non-canonical representation ") + BitmapRepName(rep_) +
        " for " + std::to_string(ones_) + "/" + std::to_string(size_));
  }
  return Status::OK();
}

// ---- Pairwise kernels ----------------------------------------------------

uint64_t CodecAndCount(const ValueBitmap& a, const ValueBitmap& b) {
  CODS_DCHECK(a.size() == b.size());
  if (a.IsAllZeros() || b.IsAllZeros()) return 0;
  if (a.IsAllOnes()) return b.CountOnes();
  if (b.IsAllOnes()) return a.CountOnes();
  const ValueBitmap* x = &a;
  const ValueBitmap* y = &b;
  // Normalize the dispatch to rep(x) <= rep(y): array < wah < bitset.
  if (static_cast<uint8_t>(x->rep()) > static_cast<uint8_t>(y->rep())) {
    std::swap(x, y);
  }
  uint64_t count = 0;
  switch (x->rep()) {
    case BitmapRep::kArray:
      switch (y->rep()) {
        case BitmapRep::kArray:
          IntersectArrays(x->array_positions(), y->array_positions(),
                          [&count](uint32_t) { ++count; });
          return count;
        case BitmapRep::kWah:
          IntersectPositionsWithWah(x->array_positions(), y->wah(),
                                    [&count](uint32_t) { ++count; });
          return count;
        case BitmapRep::kBitset: {
          const std::vector<uint64_t>& words = y->bitset_words();
          for (uint32_t p : x->array_positions()) {
            count += (words[p >> 6] >> (p & 63)) & 1;
          }
          return count;
        }
      }
      return 0;
    case BitmapRep::kWah:
      if (y->rep() == BitmapRep::kWah) return WahAndCount(x->wah(), y->wah());
      return CountWahAndDense(x->wah(), y->bitset_words().data(),
                              y->bitset_words().size());
    case BitmapRep::kBitset: {
      const std::vector<uint64_t>& wa = x->bitset_words();
      const std::vector<uint64_t>& wb = y->bitset_words();
      for (size_t i = 0; i < wa.size(); ++i) {
        count += static_cast<uint64_t>(std::popcount(wa[i] & wb[i]));
      }
      return count;
    }
  }
  return 0;
}

ValueBitmap CodecAnd(const ValueBitmap& a, const ValueBitmap& b) {
  CODS_DCHECK(a.size() == b.size());
  if (a.IsAllZeros() || b.IsAllZeros()) return AllZeros(a.size());
  if (a.IsAllOnes()) return b;
  if (b.IsAllOnes()) return a;
  const ValueBitmap* x = &a;
  const ValueBitmap* y = &b;
  if (static_cast<uint8_t>(x->rep()) > static_cast<uint8_t>(y->rep())) {
    std::swap(x, y);
  }
  if (x->rep() == BitmapRep::kArray) {
    // The intersection is a subset of the sparse side, so it stays
    // array-eligible; collect positions directly.
    std::vector<uint32_t> out;
    switch (y->rep()) {
      case BitmapRep::kArray:
        IntersectArrays(x->array_positions(), y->array_positions(),
                        [&out](uint32_t p) { out.push_back(p); });
        break;
      case BitmapRep::kWah:
        IntersectPositionsWithWah(x->array_positions(), y->wah(),
                                  [&out](uint32_t p) { out.push_back(p); });
        break;
      case BitmapRep::kBitset: {
        const std::vector<uint64_t>& words = y->bitset_words();
        for (uint32_t p : x->array_positions()) {
          if ((words[p >> 6] >> (p & 63)) & 1) out.push_back(p);
        }
        break;
      }
    }
    return ValueBitmap::FromPositions(std::move(out), a.size());
  }
  if (x->rep() == BitmapRep::kWah && y->rep() == BitmapRep::kWah) {
    return ValueBitmap::FromWah(WahAnd(x->wah(), y->wah()));
  }
  // At least one bitset: run word-parallel over a dense copy.
  std::vector<uint64_t> words;
  if (x->rep() == BitmapRep::kBitset) {
    words = x->bitset_words();
    if (y->rep() == BitmapRep::kBitset) {
      const std::vector<uint64_t>& wb = y->bitset_words();
      for (size_t i = 0; i < words.size(); ++i) words[i] &= wb[i];
    } else {
      AndWahIntoDense(y->wah(), words.data(), words.size());
    }
  } else {
    words = y->bitset_words();
    AndWahIntoDense(x->wah(), words.data(), words.size());
  }
  return ValueBitmap::FromDenseWords(std::move(words), a.size());
}

ValueBitmap CodecOr(const ValueBitmap& a, const ValueBitmap& b) {
  CODS_DCHECK(a.size() == b.size());
  if (a.IsAllZeros()) return b;
  if (b.IsAllZeros()) return a;
  if (a.IsAllOnes()) return a;
  if (b.IsAllOnes()) return b;
  const ValueBitmap* x = &a;
  const ValueBitmap* y = &b;
  if (static_cast<uint8_t>(x->rep()) > static_cast<uint8_t>(y->rep())) {
    std::swap(x, y);
  }
  if (x->rep() == BitmapRep::kArray && y->rep() == BitmapRep::kArray) {
    std::vector<uint32_t> out;
    out.reserve(x->array_positions().size() + y->array_positions().size());
    std::set_union(x->array_positions().begin(), x->array_positions().end(),
                   y->array_positions().begin(), y->array_positions().end(),
                   std::back_inserter(out));
    return ValueBitmap::FromPositions(std::move(out), a.size());
  }
  if (x->rep() == BitmapRep::kWah && y->rep() == BitmapRep::kWah) {
    return ValueBitmap::FromWah(WahOr(x->wah(), y->wah()));
  }
  // Mixed: accumulate into dense words.
  std::vector<uint64_t> words;
  if (y->rep() == BitmapRep::kBitset) {
    words = y->bitset_words();
  } else {
    words.assign(DenseWordCount(a.size()), 0);
    OrOperandIntoDense(*y, words.data(), words.size());
  }
  OrOperandIntoDense(*x, words.data(), words.size());
  return ValueBitmap::FromDenseWords(std::move(words), a.size());
}

ValueBitmap CodecNot(const ValueBitmap& a) {
  switch (a.rep()) {
    case BitmapRep::kArray: {
      // ~sparse is dense: start from all-ones and clear the positions.
      std::vector<uint64_t> words(DenseWordCount(a.size()), ~uint64_t{0});
      if (a.size() % 64 != 0 && !words.empty()) {
        words.back() = LowBits(a.size() % 64);
      }
      for (uint32_t p : a.array_positions()) {
        words[p >> 6] &= ~(uint64_t{1} << (p & 63));
      }
      return ValueBitmap::FromDenseWords(std::move(words), a.size());
    }
    case BitmapRep::kWah:
      return ValueBitmap::FromWah(WahNot(a.wah()));
    case BitmapRep::kBitset: {
      std::vector<uint64_t> words(a.bitset_words());
      for (uint64_t& w : words) w = ~w;
      if (a.size() % 64 != 0 && !words.empty()) {
        words.back() &= LowBits(a.size() % 64);
      }
      return ValueBitmap::FromDenseWords(std::move(words), a.size());
    }
  }
  return ValueBitmap();
}

// ---- Interchange kernels (ValueBitmap x WAH selection) -------------------

WahBitmap CodecAndWah(const ValueBitmap& a, const WahBitmap& selection) {
  CODS_DCHECK(a.size() == selection.size());
  if (a.IsAllZeros() || selection.IsAllZeros()) {
    return MakeWahFill(false, a.size());
  }
  if (a.IsAllOnes()) return selection;
  if (selection.IsAllOnes()) return a.ToWah();
  switch (a.rep()) {
    case BitmapRep::kArray: {
      WahBitmap out;
      IntersectPositionsWithWah(a.array_positions(), selection,
                                [&out](uint32_t p) { out.AppendSetBit(p); });
      out.AppendRun(false, a.size() - out.size());
      return out;
    }
    case BitmapRep::kWah:
      return WahAnd(a.wah(), selection);
    case BitmapRep::kBitset: {
      // Stream the selection's runs, masking through the dense words.
      const std::vector<uint64_t>& words = a.bitset_words();
      WahBitmap out;
      WahDecoder dec(selection);
      uint64_t offset = 0;
      while (!dec.exhausted() && offset < a.size()) {
        if (dec.is_fill()) {
          uint64_t span = dec.remaining_groups() * kWahGroupBits;
          uint64_t end = std::min(offset + span, a.size());
          if (dec.fill_value()) {
            for (uint64_t off = offset; off < end; off += kWahGroupBits) {
              uint64_t nbits = std::min(kWahGroupBits, end - off);
              out.AppendBits(Extract63(words.data(), words.size(), off),
                             nbits);
            }
          } else {
            out.AppendRun(false, end - offset);
          }
          offset += span;
          dec.Consume(dec.remaining_groups());
        } else {
          uint64_t nbits = std::min(kWahGroupBits, a.size() - offset);
          out.AppendBits(dec.group_payload() &
                             Extract63(words.data(), words.size(), offset),
                         nbits);
          offset += kWahGroupBits;
          dec.Consume(1);
        }
      }
      return out;
    }
  }
  return WahBitmap();
}

uint64_t CodecAndCountWah(const ValueBitmap& a, const WahBitmap& selection) {
  CODS_DCHECK(a.size() == selection.size());
  if (a.IsAllZeros() || selection.IsAllZeros()) return 0;
  if (a.IsAllOnes()) return selection.CountOnes();
  if (selection.IsAllOnes()) return a.CountOnes();
  switch (a.rep()) {
    case BitmapRep::kArray: {
      uint64_t count = 0;
      IntersectPositionsWithWah(a.array_positions(), selection,
                                [&count](uint32_t) { ++count; });
      return count;
    }
    case BitmapRep::kWah:
      return WahAndCount(a.wah(), selection);
    case BitmapRep::kBitset:
      return CountWahAndDense(selection, a.bitset_words().data(),
                              a.bitset_words().size());
  }
  return 0;
}

// ---- k-way kernels -------------------------------------------------------

WahBitmap CodecOrManyWah(const std::vector<const ValueBitmap*>& operands,
                         uint64_t size) {
  if (operands.empty()) return MakeWahFill(false, size);
  if (operands.size() == 1) return operands[0]->ToWah();
  if (AllWah(operands)) {
    std::vector<const WahBitmap*> wahs;
    wahs.reserve(operands.size());
    for (const ValueBitmap* vb : operands) wahs.push_back(&vb->wah());
    return WahOrMany(wahs, size);
  }
  std::vector<uint64_t>& acc = AccumulateUnion(operands, size);
  return DenseToWah(acc.data(), size);
}

uint64_t CodecOrManyCount(const std::vector<const ValueBitmap*>& operands,
                          uint64_t size) {
  if (operands.empty()) return 0;
  if (operands.size() == 1) return operands[0]->CountOnes();
  if (AllWah(operands)) {
    std::vector<const WahBitmap*> wahs;
    wahs.reserve(operands.size());
    for (const ValueBitmap* vb : operands) wahs.push_back(&vb->wah());
    return WahOrManyCount(wahs, size);
  }
  return CountWords(AccumulateUnion(operands, size));
}

// ---- Data movement: filter, split, concat --------------------------------

namespace {

// The split, its second side only when `want_out`: one pass sends each
// set bit p to the first side at Rank(p) when the filter keeps it, else
// to the second at p - Rank(p). Positions collect in thread-local
// scratch, so nothing regrows per call; FromPositions then builds each
// side in the container its exact count and runs pick.
std::pair<ValueBitmap, ValueBitmap> Split(const WahPositionFilter& filter,
                                          const ValueBitmap& vb,
                                          bool want_out) {
  CODS_DCHECK(vb.size() == filter.domain());
  thread_local std::vector<uint32_t> in_pos, out_pos;
  in_pos.clear();
  out_pos.clear();
  vb.ForEachSetBit([&](uint64_t p) {
    if (filter.Contains(p)) {
      in_pos.push_back(static_cast<uint32_t>(filter.Rank(p)));
    } else if (want_out) {
      out_pos.push_back(static_cast<uint32_t>(p - filter.Rank(p)));
    }
  });
  std::pair<ValueBitmap, ValueBitmap> sides;
  sides.first = ValueBitmap::FromPositions(
      std::vector<uint32_t>(in_pos.begin(), in_pos.end()),
      filter.num_positions());
  if (want_out) {
    sides.second = ValueBitmap::FromPositions(
        std::vector<uint32_t>(out_pos.begin(), out_pos.end()),
        filter.domain() - filter.num_positions());
  }
  return sides;
}

}  // namespace

std::pair<ValueBitmap, ValueBitmap> CodecSplit(const WahPositionFilter& filter,
                                               const ValueBitmap& vb) {
  return Split(filter, vb, /*want_out=*/true);
}

ValueBitmap CodecFilter(const WahPositionFilter& filter,
                        const ValueBitmap& vb) {
  return Split(filter, vb, /*want_out=*/false).first;
}

ValueBitmap CodecConcat(const ValueBitmap& a, const ValueBitmap& b) {
  const uint64_t size = a.size() + b.size();
  const uint64_t ones = a.CountOnes() + b.CountOnes();
  const BitmapRep rep = ChooseRep(ones, size, [&](uint64_t limit) {
    // A run that ends a and one that starts b join into one; counting
    // each side to limit + 1 keeps the sum's comparison with limit exact.
    const bool joined =
        !a.empty() && !b.empty() && a.Get(a.size() - 1) && b.Get(0);
    return CountRuns(a, limit + 1) + CountRuns(b, limit + 1) -
           (joined ? 1 : 0);
  });
  if (rep != BitmapRep::kArray) {
    WahBitmap out = a.ToWah();
    out.Concat(b.ToWah());
    return ValueBitmap::WahAs(rep, std::move(out));
  }
  std::vector<uint32_t> positions;
  positions.reserve(ones);
  a.ForEachSetBit([&](uint64_t p) {
    positions.push_back(static_cast<uint32_t>(p));
  });
  b.ForEachSetBit([&](uint64_t p) {
    positions.push_back(static_cast<uint32_t>(a.size() + p));
  });
  return ValueBitmap::PositionsAs(rep, std::move(positions), size);
}

}  // namespace cods
