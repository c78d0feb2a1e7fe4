// Script-driven evolution: the CLI equivalent of the CODS demo UI.
// Reads a statement script — SMOs and SELECT queries interleaved
// through the unified parser — from a file argument or a built-in
// sample, executes it against a catalog seeded with the Figure 1 table,
// and narrates every step ("Data Evolution Status" pane; query results
// print inline).
//
//   $ ./build/examples/evolution_script [--plan] [script.smo]
//
// --plan prints the script planner's dependency-DAG (the EXPLAIN view:
// stages, read/write sets, edges) for the script's SMOs instead of
// executing; queries read but never write, so they are listed outside
// the DAG.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "plan/script_planner.h"
#include "query/query_engine.h"
#include "smo/parser.h"
#include "storage/csv.h"
#include "storage/printer.h"

using namespace cods;

namespace {

const char kSampleScript[] = R"(-- CODS sample evolution script
COPY TABLE R TO R_v1;                       -- keep the old version around
SELECT COUNT(*) FROM R WHERE Skill = 'Light Cleaning'
  OR Address = '425 Grant Ave';             -- query the pre-evolution shape
DECOMPOSE TABLE R INTO S(Employee, Skill),
  T(Employee, Address) KEY(Employee);       -- schema 1 -> schema 2
ADD COLUMN Verified INT64 TO T DEFAULT 0;   -- enrich the new dimension
RENAME COLUMN Verified TO AddressVerified IN T;
PARTITION TABLE S INTO Cleaners, Others
  WHERE Skill = 'Light Cleaning';           -- split off one workload
UNION TABLES Cleaners, Others INTO S;       -- ...and put it back
SELECT Employee FROM S WHERE Skill = 'Light Cleaning'
  AND NOT Employee IN ('Nobody');           -- ...and query the new shape
SELECT S.Employee, Skill, Address FROM S JOIN T ON S.Employee = T.Employee
  WHERE AddressVerified = 0
  ORDER BY Skill DESC LIMIT 4;              -- cross-table, still compressed
SELECT Address, COUNT(*) FROM S JOIN T ON Employee = Employee
  GROUP BY Address;                         -- skills on file per address
)";

const char kSampleData[] =
    "Employee,Skill,Address\n"
    "Jones,Typing,425 Grant Ave\n"
    "Jones,Shorthand,425 Grant Ave\n"
    "Roberts,Light Cleaning,747 Industrial Way\n"
    "Ellis,Alchemy,747 Industrial Way\n"
    "Jones,Whittling,425 Grant Ave\n"
    "Ellis,Juggling,747 Industrial Way\n"
    "Harrison,Light Cleaning,425 Grant Ave\n";

}  // namespace

int main(int argc, char** argv) {
  std::string script_text = kSampleScript;
  bool plan_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--plan") {
      plan_only = true;
      continue;
    }
    std::ifstream in(arg);
    if (!in) {
      std::cerr << "cannot open script '" << arg << "'\n";
      return EXIT_FAILURE;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    script_text = buf.str();
  }

  auto script = ParseStatementScript(script_text);
  if (!script.ok()) {
    std::cerr << "parse error: " << script.status().ToString() << "\n";
    return EXIT_FAILURE;
  }

  if (plan_only) {
    std::vector<Smo> smos;
    size_t queries = 0;
    for (const Statement& stmt : *script) {
      if (stmt.kind == Statement::Kind::kSmo) {
        smos.push_back(stmt.smo);
      } else {
        ++queries;
      }
    }
    std::cout << FormatScriptPlan(smos, PlanScript(smos));
    if (queries > 0) {
      std::cout << queries << " quer" << (queries == 1 ? "y" : "ies")
                << " excluded from the DAG (queries read, never write)\n";
    }
    return EXIT_SUCCESS;
  }

  Catalog seed;
  CODS_CHECK_OK(
      seed.AddTable(CsvToTableInferred(kSampleData, "R").ValueOrDie()));
  SnapshotCatalog catalog;
  catalog.Reset(seed);
  LoggingObserver status;
  EvolutionEngine engine(&catalog, &status,
                         EngineOptions{.validate_preconditions = true,
                                       .validate_outputs = true});

  std::cout << "Executing " << script->size() << " statements...\n";
  for (const Statement& stmt : *script) {
    std::cout << "\n>>> " << stmt.ToString() << "\n";
    if (stmt.kind == Statement::Kind::kQuery) {
      // Each query reads a pinned snapshot of the current root.
      Snapshot snap = catalog.GetSnapshot();
      auto result = QueryEngine(snap.store()).Execute(stmt.query);
      if (!result.ok()) {
        std::cerr << "failed: " << result.status().ToString() << "\n";
        return EXIT_FAILURE;
      }
      if (result->verb == QueryRequest::Verb::kSelect) {
        std::cout << FormatTable(*result->table);
      } else {
        std::cout << result->ToString() << "\n";
      }
      continue;
    }
    Status st = engine.Apply(stmt.smo);
    if (!st.ok()) {
      std::cerr << "failed: " << st.ToString() << "\n";
      return EXIT_FAILURE;
    }
  }

  std::cout << "\nFinal catalog:\n";
  RootPtr final_root = catalog.current();
  for (const auto& [name, table] : final_root->tables()) {
    std::cout << "\n" << FormatTable(*table);
  }
  return EXIT_SUCCESS;
}
