// Table schemas: named, typed columns plus an optional declared key
// (candidate key). The evolution operators use the key declarations to
// check lossless-join preconditions (§2.4) and to pick the key–foreign-key
// fast path in mergence (§2.5.1).

#ifndef CODS_STORAGE_SCHEMA_H_
#define CODS_STORAGE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace cods {

/// Declaration of one column.
struct ColumnSpec {
  std::string name;
  DataType type = DataType::kString;
  // Declared sorted (§2.2). Parsed, printed and persisted, but it
  // selects no encoding: the codec stores a sorted column's values as
  // WAH fills by their run count alone. An operator's output keeps it
  // only where the operator provably keeps the column in order: a row
  // subsequence (PARTITION, DECOMPOSE, SELECT) does, a reorder (JOIN,
  // ORDER BY another column, MERGE's generated columns) does not.
  bool sorted = false;
};

/// `spec` without its SORTED declaration, for an output column whose
/// rows an operator may reorder.
inline ColumnSpec Unsorted(ColumnSpec spec) {
  spec.sorted = false;
  return spec;
}

/// An ordered list of column specs plus an optional key.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns,
                  std::vector<std::string> key = {});

  /// Validated factory: rejects duplicate column names and keys that
  /// reference unknown columns.
  static Result<Schema> Make(std::vector<ColumnSpec> columns,
                             std::vector<std::string> key = {});

  size_t num_columns() const { return columns_.size(); }
  const std::vector<ColumnSpec>& columns() const { return columns_; }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }

  /// The declared key column names (may be empty = no declared key).
  const std::vector<std::string>& key() const { return key_; }
  bool has_key() const { return !key_.empty(); }

  /// Index of the column named `name`.
  Result<size_t> ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const;

  /// Resolves a column REFERENCE, which is looser than an exact name:
  /// an exact match wins; otherwise a plain reference `c` matches a
  /// uniquely-determined qualified column `t.c` (the naming scheme of
  /// cross-table query results). Ambiguous plain references error
  /// naming every candidate.
  Result<size_t> ResolveColumnRef(const std::string& ref) const;

  /// Indices of the declared key columns, in declaration order.
  Result<std::vector<size_t>> KeyIndices() const;

  /// True when `names` (as a set) equals the declared key (as a set).
  bool IsKey(const std::vector<std::string>& names) const;

  /// Schema with one column renamed. Fails if `from` is missing or `to`
  /// collides. Key references to `from` are updated.
  Result<Schema> RenameColumn(const std::string& from,
                              const std::string& to) const;

  /// Schema with a column appended. Fails on name collision.
  Result<Schema> AddColumn(const ColumnSpec& spec) const;

  /// Schema with a column removed. Fails if missing or if the column is
  /// part of the declared key.
  Result<Schema> DropColumn(const std::string& name) const;

  /// Column names in order.
  std::vector<std::string> ColumnNames() const;

  /// True when both schemas have the same column names and types in the
  /// same order (key declarations are ignored), i.e. they are
  /// union-compatible.
  bool SameLayout(const Schema& other) const;

  /// "R(Employee STRING, Skill STRING, key=(Employee, Skill))".
  std::string ToString() const;

 private:
  std::vector<ColumnSpec> columns_;
  std::vector<std::string> key_;
};

}  // namespace cods

#endif  // CODS_STORAGE_SCHEMA_H_
