// Schema Modification Operators (Table 1 of the paper, after the PRISM
// workbench): the user-facing description of a schema update. The
// EvolutionEngine interprets these against a SnapshotCatalog, performing
// data-level data evolution.

#ifndef CODS_EVOLUTION_SMO_H_
#define CODS_EVOLUTION_SMO_H_

#include <string>
#include <vector>

#include "common/compare.h"  // Smo::compare_op (PARTITION's predicate)
#include "storage/schema.h"
#include "storage/value.h"

namespace cods {

/// The eleven SMOs of Table 1.
enum class SmoKind {
  kCreateTable,
  kDropTable,
  kRenameTable,
  kCopyTable,
  kUnionTables,
  kPartitionTable,
  kDecomposeTable,
  kMergeTables,
  kAddColumn,
  kDropColumn,
  kRenameColumn,
};

const char* SmoKindToString(SmoKind kind);

/// One schema modification operator with its parameters. Unused fields
/// are ignored by kinds that do not need them; the factory functions
/// below construct well-formed instances.
struct Smo {
  SmoKind kind = SmoKind::kCreateTable;

  std::string table;   // primary input table
  std::string table2;  // second input (MERGE, UNION)
  std::string out1;    // first output table
  std::string out2;    // second output (DECOMPOSE, PARTITION)

  Schema schema;  // CREATE TABLE

  std::vector<std::string> columns1;  // DECOMPOSE: S's columns; MERGE: join
  std::vector<std::string> columns2;  // DECOMPOSE: T's columns
  std::vector<std::string> key1;      // declared key of out1
  std::vector<std::string> key2;      // declared key of out2

  std::string column;    // column ops: target column
  std::string new_name;  // RENAME TABLE/COLUMN target name
  ColumnSpec column_spec;  // ADD COLUMN: new column declaration
  Value default_value;     // ADD COLUMN: fill value

  // PARTITION TABLE condition: rows with `column op literal` go to out1,
  // the rest to out2.
  CompareOp compare_op = CompareOp::kEq;
  Value literal;

  // ---- Factories ---------------------------------------------------------
  static Smo CreateTable(std::string name, Schema schema);
  static Smo DropTable(std::string name);
  static Smo RenameTable(std::string from, std::string to);
  static Smo CopyTable(std::string from, std::string to);
  static Smo UnionTables(std::string a, std::string b, std::string out);
  static Smo PartitionTable(std::string table, std::string out1,
                            std::string out2, std::string column,
                            CompareOp op, Value literal);
  static Smo DecomposeTable(std::string table, std::string s_name,
                            std::vector<std::string> s_columns,
                            std::vector<std::string> s_key,
                            std::string t_name,
                            std::vector<std::string> t_columns,
                            std::vector<std::string> t_key);
  static Smo MergeTables(std::string s, std::string t, std::string out,
                         std::vector<std::string> join_columns,
                         std::vector<std::string> out_key);
  static Smo AddColumn(std::string table, ColumnSpec spec,
                       Value default_value);
  static Smo DropColumn(std::string table, std::string column);
  static Smo RenameColumn(std::string table, std::string from,
                          std::string to);

  /// Renders the operator in the script syntax of smo/parser.h. The
  /// output re-parses to an equivalent operator (string literals are
  /// quoted, doubles print with round-trip precision), which the shell
  /// and the plan printer rely on.
  std::string ToString() const;

  // ---- Table sets (the script planner's conflict analysis) ---------------
  //
  // ReadTables: tables whose data this operator consumes. WriteTables:
  // tables this operator creates, replaces, drops, or whose name it
  // claims (the engine's existence checks consult exactly these names).
  // Two SMOs of a script may run concurrently iff neither writes a
  // table the other reads or writes. Both sets are sorted and deduped.

  std::vector<std::string> ReadTables() const;
  std::vector<std::string> WriteTables() const;
};

}  // namespace cods

#endif  // CODS_EVOLUTION_SMO_H_
