// Per-column dictionary: bijection between distinct values and dense
// value ids (vids). Vids are assigned in first-appearance order, which
// together with the append-only bitmaps gives the column store a
// deterministic physical layout.

#ifndef CODS_STORAGE_DICTIONARY_H_
#define CODS_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/value.h"

namespace cods {

/// Value id type. 32 bits bounds a column at ~4.2B distinct values.
using Vid = uint32_t;

/// Sentinel for "no such value id" (dictionary translation misses).
inline constexpr Vid kNoVid = static_cast<Vid>(-1);

/// Dense dictionary of distinct values for one column.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the vid of `value`, inserting it if new.
  Vid GetOrInsert(const Value& value);

  /// Returns the vid of `value` if present (variant equality).
  std::optional<Vid> Lookup(const Value& value) const;

  /// True when Lookup(literal) finds exactly the values EvalCompare
  /// calls equal to `literal`. It does not for an int64 literal on a
  /// dictionary holding doubles (3 order-equals 3.0), a double literal
  /// on one holding int64s, or a NaN literal on one holding a NaN (NaN
  /// order-equals NaN but is never variant-equal). O(1).
  bool LookupIsOrderExact(const Value& literal) const;

  /// The value for a vid. `vid` must be < size().
  const Value& value(Vid vid) const { return values_[vid]; }

  /// Number of distinct values.
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Approximate heap footprint in bytes.
  uint64_t SizeBytes() const;

  /// All distinct values in vid order.
  const std::vector<Value>& values() const { return values_; }

 private:
  std::vector<Value> values_;
  std::unordered_map<Value, Vid, ValueHash> index_;
  bool has_int64_ = false;
  bool has_double_ = false;
  bool has_nan_ = false;
};

}  // namespace cods

#endif  // CODS_STORAGE_DICTIONARY_H_
