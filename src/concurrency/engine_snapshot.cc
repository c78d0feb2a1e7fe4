// The commit core of EvolutionEngine, and the one place the engine
// writes the WAL.
//
// EvolutionEngine (evolution/engine.h) declares RunScript but
// evolution sits below concurrency/ in the architecture, so the
// definition — which drives the MVCC commit protocol — lives here, with
// the protocol it integrates. It links into the same engine; only the
// include graph is layered.

#include "common/script_log.h"
#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "plan/staged_catalog.h"

namespace cods {

Status EvolutionEngine::RunScript(std::span<const Smo> script,
                                  TaskGraphStats* stats, bool planned) {
  if (stats != nullptr) *stats = {};
  if (script.empty()) return Status::OK();
  // Pin the base root and stage the whole script against it; readers
  // keep serving, and nothing here touches the published root.
  RootPtr base = snapshots_->current();
  StagedCatalog staged(base.get());
  std::vector<CatalogEffect> effects;
  size_t applied = 0;
  Status run = StageScript(&staged, script, planned, stats, &effects, &applied);
  // The WAL records the script inside the commit critical section:
  // after conflict validation (an aborted script never reaches the log —
  // it had no effect, so replay must not see it) and strictly before the
  // root swap (readers can only observe roots whose scripts are
  // fsync-durable).
  SnapshotCatalog::PreSwapFn pre_swap;
  if (options_.wal != nullptr) {
    pre_swap = [this, &script, applied]() -> Status {
      ScriptLog& wal = *options_.wal;
      CODS_RETURN_NOT_OK(wal.BeginScript());
      for (const Smo& smo : script) {
        CODS_RETURN_NOT_OK(wal.AppendStatement(smo.ToString()));
      }
      return wal.CommitScript(static_cast<uint32_t>(applied));
    };
  }
  // A conflict abort or durability failure outranks the script's own
  // status: the caller must not treat any part of it as applied.
  CODS_RETURN_NOT_OK(snapshots_->CommitEffects(base, effects, pre_swap));
  return run;
}

}  // namespace cods
