// Quickstart: build a table, inspect its compressed storage, run one
// schema evolution, and look at the results.
//
//   $ ./build/examples/quickstart

#include <cstdlib>
#include <iostream>

#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "storage/csv.h"
#include "storage/printer.h"

using namespace cods;  // examples favor brevity; library code never does this

int main() {
  // 1. Load a small table from CSV (types inferred from the data).
  const char* csv =
      "Employee,Skill,Address\n"
      "Jones,Typing,425 Grant Ave\n"
      "Jones,Shorthand,425 Grant Ave\n"
      "Roberts,Light Cleaning,747 Industrial Way\n"
      "Ellis,Alchemy,747 Industrial Way\n"
      "Jones,Whittling,425 Grant Ave\n"
      "Ellis,Juggling,747 Industrial Way\n"
      "Harrison,Light Cleaning,425 Grant Ave\n";
  auto r = CsvToTableInferred(csv, "R");
  if (!r.ok()) {
    std::cerr << r.status().ToString() << "\n";
    return EXIT_FAILURE;
  }

  std::cout << "Loaded table:\n" << FormatTable(**r) << "\n";
  std::cout << "Storage (each column = dictionary + one WAH bitmap per "
               "distinct value):\n"
            << FormatTableStats(**r) << "\n";

  // 2. Serve it from a snapshot catalog and evolve the schema at the
  //    data level. Each SMO commits one atomic root swap.
  Catalog seed;
  CODS_CHECK_OK(seed.AddTable(*r));
  SnapshotCatalog catalog;
  catalog.Reset(seed);
  LoggingObserver observer;  // prints each data-evolution step
  EvolutionEngine engine(&catalog, &observer);

  Smo decompose = Smo::DecomposeTable(
      "R", "S", {"Employee", "Skill"}, /*s_key=*/{}, "T",
      {"Employee", "Address"}, /*t_key=*/{"Employee"});
  std::cout << "Executing: " << decompose.ToString() << "\n";
  CODS_CHECK_OK(engine.Apply(decompose));

  // 3. Inspect the outputs. S reused R's columns untouched; T was built
  //    directly from R's compressed bitmaps.
  RootPtr root = catalog.current();
  auto s = root->GetTable("S").ValueOrDie();
  auto t = root->GetTable("T").ValueOrDie();
  std::cout << "\n" << FormatTable(*s) << "\n" << FormatTable(*t) << "\n";

  // 4. And back: merge S and T into R again (key-foreign key mergence).
  Smo merge = Smo::MergeTables("S", "T", "R", {"Employee"}, {});
  std::cout << "Executing: " << merge.ToString() << "\n";
  CODS_CHECK_OK(engine.Apply(merge));
  std::cout << "\n"
            << FormatTable(*catalog.current()->GetTable("R").ValueOrDie());
  return EXIT_SUCCESS;
}
