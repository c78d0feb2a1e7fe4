// The workloads (evolve, mixed) and the result every run
// prints: end-to-end metrics with tracing off, per-layer metrics from the
// traced replay with tracing on.
#ifndef CODSBENCH_WORKLOADS_H_
#define CODSBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace codsbench {

/// Worker threads of every evolution engine the benchmark runs (4 vCPUs
/// on the machine the bounds were set on). A step as wide as the machine
/// waits for its slowest thread, so on a shared VM one vCPU taken by a
/// neighbour stalls it; two threads leave headroom, and the planner's
/// overlap stays visible.
inline constexpr int kEngineThreads = 2;

struct RunConfig {
  std::string workload;  // evolve | mixed
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;         // scratch directory for the databases of this run
  std::string spans_path;  // traced runs write their spans here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::string first_error;  // the first wrong answer, if any
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Wrong(const std::string& what) {
    if (correct) first_error = what;
    correct = false;
  }
};

Outcome RunWorkload(const RunConfig& config);

}  // namespace codsbench

#endif  // CODSBENCH_WORKLOADS_H_
