// The CODS evolution engine: interprets Schema Modification Operators
// against a SnapshotCatalog, executing data evolution at the data level.
// This is the component behind the demo's "execution" button.
//
// Every entry point takes the same commit path: the script stages
// against the catalog's current root through a private overlay (readers
// keep serving pinned snapshots, unblocked), then the effects of the
// applied prefix commit as ONE root swap through SnapshotCatalog's
// first-writer-wins protocol. Staging runs one of two ways:
//   * Apply / ApplyAll — strictly serial, one operator at a time.
//   * ApplyAllPlanned — plans the script into a dependency DAG over the
//     operators' table read/write sets (plan/script_planner.h) and runs
//     it on the exec-layer TaskGraph so independent operators overlap.
//     The committed root — schemas and per-column code words — is
//     bit-identical to ApplyAll at every thread count, and a mid-script
//     failure commits exactly the serial prefix with the same error
//     Status.

#ifndef CODS_EVOLUTION_ENGINE_H_
#define CODS_EVOLUTION_ENGINE_H_

#include <span>
#include <vector>

#include "evolution/decompose.h"
#include "evolution/merge.h"
#include "evolution/observer.h"
#include "evolution/simple_ops.h"
#include "evolution/smo.h"
#include "exec/exec.h"
#include "exec/task_graph.h"
#include "storage/catalog.h"

namespace cods {

class ScriptLog;        // common/script_log.h (durability's WalWriter)
class SnapshotCatalog;  // concurrency/snapshot_catalog.h
class StagedCatalog;    // plan/staged_catalog.h
struct CatalogEffect;   // plan/staged_catalog.h

/// Engine options.
struct EngineOptions {
  /// Check lossless-join / key preconditions on the data before running
  /// DECOMPOSE and the key–FK mergence path.
  bool validate_preconditions = false;
  /// Run Table::ValidateInvariants on every produced table (tests).
  bool validate_outputs = false;
  /// Worker threads for the data-movement phases of DECOMPOSE / MERGE /
  /// UNION / PARTITION, output validation, and ApplyAllPlanned's
  /// script-level task graph. 0: process default (CODS_THREADS env var,
  /// else hardware concurrency); 1: strictly serial. Results are
  /// bit-identical at every thread count.
  int num_threads = 0;
  /// Write-ahead log for committed scripts, owned by the caller
  /// (durability/db.h). Every script is logged as BEGIN / STATEMENT* /
  /// COMMIT inside the commit critical section: after conflict
  /// validation, so an aborted script never reaches the log, and
  /// strictly before the root swap, so readers only ever observe roots
  /// whose scripts are fsync-durable. The commit record counts the
  /// statements that succeeded, which keeps mid-script failures
  /// replayable as exact prefixes. A WAL failure outranks the script's
  /// own status and leaves the published root unchanged.
  ScriptLog* wal = nullptr;
};

/// Applies SMOs to a SnapshotCatalog.
///
/// Catalog effects per operator:
///   CREATE/COPY add a table; DROP removes one; RENAME renames in place.
///   DECOMPOSE replaces the input with its two outputs; MERGE and UNION
///   replace their two inputs with the output; PARTITION replaces the
///   input with the two parts; the column operators replace the input
///   table with its new version under the same name.
///
/// Commits are first-writer-wins: a competing writer that committed a
/// change to a table this script writes since the script pinned its base
/// aborts the script with kAborted; disjoint write sets rebase cleanly.
class EvolutionEngine {
 public:
  explicit EvolutionEngine(SnapshotCatalog* snapshots,
                           EvolutionObserver* observer = nullptr,
                           EngineOptions options = {});

  /// Executes one operator (a one-statement script). Errors carry the
  /// statement text as context.
  Status Apply(const Smo& smo);

  /// Executes a script with serial staging; stops at the first failure,
  /// commits the applied prefix, and returns that failure.
  Status ApplyAll(const std::vector<Smo>& script);

  /// Executes a script through the planner + task graph: independent
  /// operators overlap on num_threads workers, each operator's catalog
  /// effects are staged privately, and the effects commit in script
  /// order — so on success the root is bit-identical to ApplyAll's, and
  /// on failure exactly the operators preceding the first failing
  /// SCRIPT POSITION are committed and that operator's Status is
  /// returned (operators with no path from the failure may have run;
  /// their staged effects are discarded). Fills `stats` (optional) with
  /// the task-graph execution statistics.
  Status ApplyAllPlanned(const std::vector<Smo>& script,
                         TaskGraphStats* stats = nullptr);

 private:
  // The staging and commit cores below are declared here but DEFINED one
  // layer up (plan/engine_planned.cc and concurrency/engine_snapshot.cc):
  // evolution sits below plan and concurrency in the architecture, so the
  // integration glue that needs their types lives with them and this
  // header only forward-declares.

  // The one commit path: stages the script against the current root,
  // then commits the applied prefix's effects (WAL-logging, when
  // configured, inside the commit critical section before the swap).
  Status RunScript(std::span<const Smo> script, TaskGraphStats* stats,
                   bool planned);
  // Stages a script against `staged` without committing anything:
  // serial loop or planner + task graph. On return `effects` holds the
  // staged effects of the commit prefix (every operator before the first
  // script-order failure) in script order, `applied` that prefix's
  // length, and the returned Status is that first failure (OK when all
  // ran).
  Status StageScript(StagedCatalog* staged, std::span<const Smo> script,
                     bool planned, TaskGraphStats* stats,
                     std::vector<CatalogEffect>* effects, size_t* applied);
  // Operator interpreters over one staged overlay view. `observer`
  // rather than the member so planned execution can substitute a
  // serializing adapter.
  Status ApplyTo(TableStore& store, const Smo& smo,
                 EvolutionObserver* observer);
  Status ApplyCreateTable(TableStore& store, const Smo& smo);
  Status ApplyDecompose(TableStore& store, const Smo& smo,
                        EvolutionObserver* observer);
  Status ApplyMerge(TableStore& store, const Smo& smo,
                    EvolutionObserver* observer);
  Status ApplyUnion(TableStore& store, const Smo& smo,
                    EvolutionObserver* observer);
  Status ApplyPartition(TableStore& store, const Smo& smo,
                        EvolutionObserver* observer);
  Status ApplyColumnOp(TableStore& store, const Smo& smo);

  // Validates a produced table when validate_outputs is on.
  Status MaybeValidate(const Table& table);

  SnapshotCatalog* snapshots_;
  EvolutionObserver* observer_;
  EngineOptions options_;
  ExecContext exec_ctx_;
};

}  // namespace cods

#endif  // CODS_EVOLUTION_ENGINE_H_
