#include "storage/dictionary.h"

#include <cmath>

#include "common/logging.h"

namespace cods {

Vid Dictionary::GetOrInsert(const Value& value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  CODS_CHECK(values_.size() < UINT32_MAX) << "dictionary overflow";
  Vid vid = static_cast<Vid>(values_.size());
  values_.push_back(value);
  index_.emplace(value, vid);
  has_int64_ |= value.is_int64();
  has_double_ |= value.is_double();
  has_nan_ |= value.is_double() && std::isnan(value.dbl());
  return vid;
}

std::optional<Vid> Dictionary::Lookup(const Value& value) const {
  auto it = index_.find(value);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool Dictionary::LookupIsOrderExact(const Value& literal) const {
  // ±0.0 need no case: they are variant-equal and hash alike, so a
  // dictionary holds at most one of them and Lookup finds it for both.
  if (literal.is_int64()) return !has_double_;
  if (!literal.is_double()) return true;
  return !has_int64_ && !(has_nan_ && std::isnan(literal.dbl()));
}

uint64_t Dictionary::SizeBytes() const {
  uint64_t bytes = values_.size() * (sizeof(Value) + sizeof(Vid) + 16);
  for (const Value& v : values_) {
    if (v.is_string()) bytes += v.str().capacity();
  }
  return bytes;
}

}  // namespace cods
