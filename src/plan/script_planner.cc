#include "plan/script_planner.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace cods {

namespace {

// Both vectors sorted (Smo::ReadTables/WriteTables guarantee it).
bool Intersects(const std::vector<std::string>& a,
                const std::vector<std::string>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

// j conflicts with i iff one writes what the other reads or writes.
bool Conflicts(const PlannedTask& a, const PlannedTask& b) {
  return Intersects(a.writes, b.writes) || Intersects(a.writes, b.reads) ||
         Intersects(a.reads, b.writes);
}

}  // namespace

ScriptPlan PlanScript(std::span<const Smo> script) {
  ScriptPlan plan;
  const size_t n = script.size();
  plan.tasks.resize(n);
  for (size_t i = 0; i < n; ++i) {
    plan.tasks[i].reads = script[i].ReadTables();
    plan.tasks[i].writes = script[i].WriteTables();
  }

  // reach[i][j]: task j is a (transitive) predecessor of task i. Used
  // for on-the-fly transitive reduction: scanning candidates from i-1
  // downward, a conflicting j already covered by a chosen edge's
  // ancestry needs no direct edge.
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t jj = i; jj > 0; --jj) {
      const size_t j = jj - 1;
      if (reach[i][j]) continue;
      if (!Conflicts(plan.tasks[j], plan.tasks[i])) continue;
      plan.tasks[i].deps.push_back(j);
      plan.num_edges += 1;
      reach[i][j] = true;
      for (size_t k = 0; k < j; ++k) {
        if (reach[j][k]) reach[i][k] = true;
      }
    }
    // deps were collected in descending order; keep them ascending.
    std::reverse(plan.tasks[i].deps.begin(), plan.tasks[i].deps.end());
  }

  // Level sets (edges only point backward in script order, so a single
  // forward pass computes longest chains).
  std::vector<size_t> level(n, 0);
  size_t max_level = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t d : plan.tasks[i].deps) {
      if (level[d] + 1 > level[i]) level[i] = level[d] + 1;
    }
    if (level[i] > max_level) max_level = level[i];
  }
  plan.stages.assign(n == 0 ? 0 : max_level + 1, {});
  for (size_t i = 0; i < n; ++i) plan.stages[level[i]].push_back(i);
  plan.critical_path = plan.stages.size();
  return plan;
}

std::string FormatScriptPlan(const std::vector<Smo>& script,
                             const ScriptPlan& plan) {
  std::ostringstream out;
  out << "script plan: " << plan.tasks.size() << " task"
      << (plan.tasks.size() == 1 ? "" : "s") << ", " << plan.num_edges
      << " edge" << (plan.num_edges == 1 ? "" : "s") << ", "
      << plan.stages.size() << " stage"
      << (plan.stages.size() == 1 ? "" : "s") << " (critical path "
      << plan.critical_path << " of " << plan.tasks.size() << ")\n";
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    out << "stage " << s << ":\n";
    for (size_t i : plan.stages[s]) {
      const PlannedTask& task = plan.tasks[i];
      out << "  [" << i << "] " << script[i].ToString() << "\n";
      out << "      reads: "
          << (task.reads.empty() ? "-" : Join(task.reads, ", "))
          << "  writes: "
          << (task.writes.empty() ? "-" : Join(task.writes, ", "));
      if (!task.deps.empty()) {
        std::vector<std::string> deps;
        deps.reserve(task.deps.size());
        for (size_t d : task.deps) deps.push_back(std::to_string(d));
        out << "  after: " << Join(deps, ", ");
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace cods
