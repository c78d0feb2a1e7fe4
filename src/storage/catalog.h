// The catalog: the named set of tables the evolution engine operates on.
// Schema-only SMOs (CREATE/DROP/RENAME TABLE) are pure catalog edits;
// data-level SMOs swap table entries whose columns share storage with
// their predecessors.

#ifndef CODS_STORAGE_CATALOG_H_
#define CODS_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"

namespace cods {

/// The name → table operations an SMO interpreter needs. The evolution
/// engine executes against a staged overlay of this interface (see
/// plan/staged_catalog.h) whose effects commit later; queries read any
/// implementation (a Catalog, a published root, an overlay view).
class TableStore {
 public:
  virtual ~TableStore() = default;

  /// Registers a table under table->name(). Fails if the name is taken.
  virtual Status AddTable(std::shared_ptr<const Table> table) = 0;

  /// Replaces or inserts a table under table->name().
  virtual void PutTable(std::shared_ptr<const Table> table) = 0;

  /// Looks up a table.
  virtual Result<std::shared_ptr<const Table>> GetTable(
      const std::string& name) const = 0;

  virtual bool HasTable(const std::string& name) const = 0;

  /// Removes a table. Fails if missing.
  virtual Status DropTable(const std::string& name) = 0;

  /// Renames a table (data untouched). Fails if `from` is missing or
  /// `to` exists.
  virtual Status RenameTable(const std::string& from,
                             const std::string& to) = 0;
};

/// Name → table mapping with Status-returning mutations.
class Catalog : public TableStore {
 public:
  using TableMap = std::map<std::string, std::shared_ptr<const Table>>;

  Catalog() = default;
  /// Adopts a name → table map whose keys match the tables' names.
  explicit Catalog(TableMap tables) : tables_(std::move(tables)) {}

  // Catalogs own the authoritative table map; copying one would silently
  // fork the database, so forbid it (move is fine).
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) noexcept = default;
  Catalog& operator=(Catalog&&) noexcept = default;

  Status AddTable(std::shared_ptr<const Table> table) override;
  void PutTable(std::shared_ptr<const Table> table) override;
  Result<std::shared_ptr<const Table>> GetTable(
      const std::string& name) const override;
  bool HasTable(const std::string& name) const override;
  Status DropTable(const std::string& name) override;
  Status RenameTable(const std::string& from, const std::string& to) override;

  /// Table names in sorted order.
  std::vector<std::string> TableNames() const;

  size_t size() const { return tables_.size(); }
  const TableMap& tables() const { return tables_; }
  /// Moves the map out of an expiring catalog.
  TableMap TakeTables() && { return std::move(tables_); }

 private:
  TableMap tables_;
};

}  // namespace cods

#endif  // CODS_STORAGE_CATALOG_H_
