// DECOMPOSE TABLE (CODS §2.4): lossless-join decomposition of R into S
// and T executed at the data level.
//
//   Property 1 — at least one output table (here S) is unchanged, so its
//   columns are reused from R by pointer: zero data work.
//   Property 2 — T's non-key attributes are functionally dependent on its
//   key in R, so one representative row per distinct key suffices.
//
//   Step 1 "distinction": build the sorted list of representative row
//   positions, one per distinct value combination of T's key. For a
//   single-attribute key this never leaves the compressed domain: the
//   representative of value v is FirstSetBit of v's bitmap.
//   Step 2 "bitmap filtering": every bitmap of every T attribute is
//   shrunk to the positions in the list, directly compressed-to-
//   compressed (bitmap/wah_filter.h).

#ifndef CODS_EVOLUTION_DECOMPOSE_H_
#define CODS_EVOLUTION_DECOMPOSE_H_

#include <memory>
#include <string>
#include <vector>

#include "evolution/observer.h"
#include "exec/exec.h"
#include "storage/table.h"

namespace cods {

/// Options controlling the decomposition operator.
struct DecomposeOptions {
  /// Verify the lossless-join precondition by checking the functional
  /// dependency on the data (O(rows)) instead of trusting the key
  /// declaration.
  bool validate_fd = false;
  /// Execution context for the parallel phases (distinction and bitmap
  /// filtering). nullptr: the process default.
  const ExecContext* exec = nullptr;
};

/// Result of a decomposition: S reuses R's columns, T is generated.
struct DecomposeResult {
  std::shared_ptr<const Table> s;
  std::shared_ptr<const Table> t;
  /// Number of distinct key combinations found by distinction
  /// (== t->rows()).
  uint64_t distinct_keys = 0;
};

/// Decomposes `r` into S(s_columns) and T(t_columns).
///
/// The common columns of the two outputs are the join attributes; they
/// must form a key of one output (declared via `t_key` / `s_key`, or
/// discovered from the data when options.validate_fd is set). The table
/// whose remaining attributes are functionally determined is generated;
/// the other is reused.
///
/// Keys: `s_key` / `t_key` become the declared keys of the outputs.
Result<DecomposeResult> CodsDecompose(
    const Table& r, const std::string& s_name,
    const std::vector<std::string>& s_columns,
    const std::vector<std::string>& s_key, const std::string& t_name,
    const std::vector<std::string>& t_columns,
    const std::vector<std::string>& t_key,
    EvolutionObserver* observer = nullptr,
    const DecomposeOptions& options = {});

/// One representative row of a distinct key: its position, and for a
/// single-column key the key's vid at that row (kNoVid for a composite
/// key).
struct DistinctRow {
  uint64_t position;
  Vid vid;
  friend bool operator==(const DistinctRow&, const DistinctRow&) = default;
};

/// The "distinction" step alone (exposed for tests and benches): returns
/// one representative row of `table` per distinct value combination of
/// `key_columns`, sorted by position.
Result<std::vector<DistinctRow>> DistinctionPositions(
    const Table& table, const std::vector<std::string>& key_columns,
    const ExecContext* ctx = nullptr);

}  // namespace cods

#endif  // CODS_EVOLUTION_DECOMPOSE_H_
