// The traced replay: the benchmark's own code feeds a workload's generated
// inputs through each layer's public functions and times every call in a
// span (trace.h). Nothing inside src/ is instrumented.
#ifndef CODSBENCH_REPLAY_H_
#define CODSBENCH_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "concurrency/snapshot_catalog.h"
#include "data.h"
#include "workloads.h"

namespace codsbench {

/// One statement as a session (or the embedded DBA) sends it, with its
/// oracle answer.
struct ReplayStatement {
  std::string text;      // statement text (kPoint: the literal form)
  std::string expected;  // canonical oracle answer
  bool prepared = false; // sent as EXEC of kPointSql with `param`
  int64_t param = 0;
};

struct ReplayInputs {
  cods::SnapshotCatalog* serving = nullptr;  // R, D and the DBA's table
  std::shared_ptr<const cods::Table> r;     // the query table
  FactSpec dba_spec;                        // the DBA's table
  const FactReference* dba_ref = nullptr;
  std::vector<ReplayStatement> statements;
  bool served = false;            // through the server's stages (mixed)
  size_t batch_width = 1;         // statements the server drains at once
  double live_query_p50_us = 0;   // untraced, from the live phase
  std::string scratch_dir;        // WAL and checkpoint files of the replay
  std::string spans_path;         // where the spans are written at the end
  cods::Env* env = nullptr;
};

/// Runs the replay (spans off, on, off), adds every replay-derived
/// per-layer metric to `out`, writes the spans to `spans_path`, and marks
/// `out` wrong on any bad answer.
void RunReplay(const ReplayInputs& in, Outcome* out);

}  // namespace codsbench

#endif  // CODSBENCH_REPLAY_H_
