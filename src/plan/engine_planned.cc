// The staging core of EvolutionEngine.
//
// EvolutionEngine (evolution/engine.h) declares StageScript but
// evolution sits below plan/ in the architecture, so the definition —
// which needs the script planner and the staged-catalog overlay — lives
// here, in the layer that owns those types. It links into the same
// engine; only the include graph is layered.

#include <cstddef>
#include <iterator>

#include "evolution/engine.h"
#include "evolution/observer.h"
#include "plan/script_planner.h"
#include "plan/staged_catalog.h"

namespace cods {

Status EvolutionEngine::StageScript(
    StagedCatalog* staged, std::span<const Smo> script, bool planned,
    TaskGraphStats* stats, std::vector<CatalogEffect>* effects,
    size_t* applied) {
  const size_t n = script.size();
  *applied = 0;

  if (!planned) {
    // Serial staging: one operator at a time against the overlay, all
    // appending to one log; a failing operator's partial effects are
    // cut off, and its error carries its statement text.
    for (size_t i = 0; i < n; ++i) {
      const size_t mark = effects->size();
      StagedCatalog::View view = staged->MakeView(effects);
      Status st = ApplyTo(view, script[i], observer_);
      if (!st.ok()) {
        effects->erase(effects->begin() + static_cast<std::ptrdiff_t>(mark),
                       effects->end());
        return st.WithContext(script[i].ToString());
      }
      ++*applied;
    }
    return Status::OK();
  }

  // Planned tasks run concurrently, so each records into its own log.
  ScriptPlan plan = PlanScript(script);
  std::vector<std::vector<CatalogEffect>> logs(n);
  std::vector<StagedCatalog::View> views;
  views.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    views.push_back(staged->MakeView(&logs[i]));
  }

  // Observers written for serial execution must not see concurrent
  // callbacks from overlapping operators.
  SerializedObserver serialized(observer_);
  EvolutionObserver* observer = observer_ != nullptr ? &serialized : nullptr;

  TaskGraph graph;
  for (size_t i = 0; i < n; ++i) {
    graph.AddTask(
        [this, &views, &script, observer, i]() -> Status {
          // Same context string as serial staging attaches.
          Status st = ApplyTo(views[i], script[i], observer);
          if (!st.ok()) return st.WithContext(script[i].ToString());
          return st;
        },
        SmoKindToString(script[i].kind));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t dep : plan.tasks[i].deps) {
      graph.AddDependency(static_cast<int>(i), static_cast<int>(dep));
    }
  }

  Status run_status = graph.Run(exec_ctx_);
  if (stats != nullptr) *stats = graph.stats();

  // Planner graphs are acyclic by construction; a non-OK Run with every
  // task status OK means nothing executed (defensive) — commit nothing.
  if (!run_status.ok()) {
    bool any_task_failed = false;
    for (size_t i = 0; i < n && !any_task_failed; ++i) {
      any_task_failed = !graph.task_status(static_cast<int>(i)).ok();
    }
    if (!any_task_failed) return run_status;
  }

  // The commit prefix stops at the first failed SCRIPT position —
  // exactly the operators serial ApplyAll would have applied.
  for (size_t i = 0; i < n; ++i) {
    const Status& st = graph.task_status(static_cast<int>(i));
    if (!st.ok()) return st;
    effects->insert(effects->end(), std::make_move_iterator(logs[i].begin()),
                    std::make_move_iterator(logs[i].end()));
    ++*applied;
  }
  return Status::OK();
}

}  // namespace cods
