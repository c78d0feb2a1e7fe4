// The paper's §1 walkthrough, scenario 1 ("new information about the
// data"): table R(Employee, Skill) gains an Address attribute; later we
// learn employees have multiple skills, so R is decomposed into
// S(Employee, Skill) and T(Employee, Address) to remove redundancy and
// update anomalies — Figure 1's schema 1 → schema 2 evolution, executed
// at the data level with the evolution status shown step by step.
//
//   $ ./build/examples/employee_evolution

#include <cstdlib>
#include <iostream>

#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "storage/printer.h"
#include "storage/scanner.h"

using namespace cods;

namespace {

std::shared_ptr<const Table> InitialEmployeeTable() {
  Schema schema({{"Employee", DataType::kString, false},
                 {"Skill", DataType::kString, false}},
                {});
  TableBuilder builder("R", schema);
  const char* rows[][2] = {
      {"Jones", "Typing"},          {"Jones", "Shorthand"},
      {"Roberts", "Light Cleaning"}, {"Ellis", "Alchemy"},
      {"Jones", "Whittling"},       {"Ellis", "Juggling"},
      {"Harrison", "Light Cleaning"}};
  for (auto& r : rows) {
    CODS_CHECK_OK(builder.AppendRow({Value(r[0]), Value(r[1])}));
  }
  return builder.Finish().ValueOrDie();
}

// Address of each employee, as it "emerges" later (paper Figure 1).
Value AddressOf(const Value& employee) {
  const std::string& e = employee.str();
  if (e == "Jones" || e == "Harrison") return Value("425 Grant Ave");
  return Value("747 Industrial Way");
}

}  // namespace

int main() {
  Catalog seed;
  CODS_CHECK_OK(seed.AddTable(InitialEmployeeTable()));
  SnapshotCatalog catalog;
  catalog.Reset(seed);
  LoggingObserver status;  // the demo's "Data Evolution Status" pane
  EvolutionEngine engine(&catalog, &status,
                         EngineOptions{.validate_preconditions = true});
  auto table = [&catalog](const std::string& name) {
    return catalog.current()->GetTable(name).ValueOrDie();
  };

  std::cout << "== Schema v0: employees and skills ==\n"
            << FormatTable(*table("R")) << "\n";

  // ---- Evolution 1: address information emerges → ADD COLUMN. ----------
  // The demo supports loading per-row data for the new column; here we
  // compute it from the employee attribute.
  {
    auto r = table("R");
    std::vector<Value> addresses;
    TableScanner scanner(*r, {0});
    for (uint64_t row = 0; row < r->rows(); ++row) {
      addresses.push_back(AddressOf(scanner.GetRow(row)[0]));
    }
    auto with_addr = AddColumnWithDataOp(
        *r, {"Address", DataType::kString, false}, addresses);
    CODS_CHECK_OK(with_addr.status());
    // Data-carrying column loads are not SMOs; they commit through a
    // staged write transaction.
    SnapshotCatalog::WriteTxn txn = catalog.BeginWrite();
    txn.store().PutTable(std::move(with_addr).ValueOrDie());
    CODS_CHECK_OK(catalog.Commit(std::move(txn)));
  }
  std::cout << "== Schema v1: Address column added ==\n"
            << FormatTable(*table("R")) << "\n";

  // ---- Evolution 2: redundancy spotted → DECOMPOSE (schema 1 → 2). -----
  // Addresses repeat once per skill; decomposing on the FD
  // Employee → Address removes the redundancy.
  CODS_CHECK_OK(engine.Apply(Smo::DecomposeTable(
      "R", "S", {"Employee", "Skill"}, {"Employee", "Skill"}, "T",
      {"Employee", "Address"}, {"Employee"})));
  std::cout << "\n== Schema v2: decomposed ==\n"
            << FormatTable(*table("S")) << "\n"
            << FormatTable(*table("T")) << "\n";

  // ---- Evolution 3: workload turns query-heavy → MERGE (schema 2 → 1).
  // Most queries now look up addresses given skills; the join hurts, so
  // evolve back to the wide schema.
  CODS_CHECK_OK(
      engine.Apply(Smo::MergeTables("S", "T", "R", {"Employee"}, {})));
  std::cout << "\n== Schema v3: merged back for the query-heavy workload "
               "==\n"
            << FormatTable(*table("R"));

  return EXIT_SUCCESS;
}
