// The SMO script planner: turns a parsed evolution script into a
// dependency DAG over table read/write sets, so independent operators
// can overlap on the exec-layer TaskGraph while the final catalog stays
// bit-identical to serial ApplyAll (see plan/staged_catalog.h for the
// commit protocol and evolution/engine.h ApplyAllPlanned for the
// executor).
//
// Conflict model: operator j must precede operator i (j < i in script
// order) iff one of them writes a table the other reads or writes.
// Read/read sharing is free — tables are immutable shared_ptrs. The
// planner adds only non-transitive edges (if j -> k -> i exists, the
// direct j -> i edge is omitted), so the DAG is the transitive
// reduction of the conflict relation restricted to script order.

#ifndef CODS_PLAN_SCRIPT_PLANNER_H_
#define CODS_PLAN_SCRIPT_PLANNER_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "evolution/smo.h"

namespace cods {

/// One script operator with its conflict analysis.
struct PlannedTask {
  std::vector<std::string> reads;   // tables whose data the SMO consumes
  std::vector<std::string> writes;  // tables the SMO creates/replaces/drops
  std::vector<size_t> deps;         // script indices that must run first
};

/// The dependency DAG of a script. tasks[i] corresponds to script[i].
struct ScriptPlan {
  std::vector<PlannedTask> tasks;
  size_t num_edges = 0;
  /// Level sets: stage s holds the tasks whose longest dependency chain
  /// has s predecessors — everything within one stage may overlap.
  std::vector<std::vector<size_t>> stages;
  /// Length of the longest dependency chain (== stages.size()).
  size_t critical_path = 0;
};

/// Builds the plan. Pure analysis — never fails, touches no catalog.
ScriptPlan PlanScript(std::span<const Smo> script);

/// EXPLAIN-style rendering: one line per operator with its read/write
/// sets and dependencies, grouped into parallel stages.
std::string FormatScriptPlan(const std::vector<Smo>& script,
                             const ScriptPlan& plan);

}  // namespace cods

#endif  // CODS_PLAN_SCRIPT_PLANNER_H_
