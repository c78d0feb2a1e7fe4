// Sample statistics shared by every workload: nearest-rank percentiles,
// the sample-count rule for tail percentiles, and peak-RSS bookkeeping.
#ifndef CODSBENCH_STATS_H_
#define CODSBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace codsbench {

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it (q in (0, 1]). 0 for an empty set.
double Percentile(std::vector<double> samples, double q);

/// Median by the same nearest-rank rule.
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// True when the q-th percentile of n samples has at least ten samples
/// strictly beyond it, so it is supported by the data rather than being
/// the maximum in disguise.
bool PercentileSupported(size_t n, double q);

/// Latency samples of one operation class. A failed or refused operation
/// is recorded at `failure_cost` (the statement deadline): it counts as
/// missing any latency limit, never as a fast answer.
class LatencyLog {
 public:
  explicit LatencyLog(double failure_cost) : failure_cost_(failure_cost) {}
  void Ok(double v) { samples_.push_back(v); }
  void Failed() {
    samples_.push_back(failure_cost_);
    ++failed_;
  }
  void Append(const LatencyLog& other);
  double P(double q) const { return Percentile(samples_, q); }
  size_t count() const { return samples_.size(); }
  size_t failed() const { return failed_; }

 private:
  double failure_cost_;
  std::vector<double> samples_;
  size_t failed_ = 0;
};

/// An open-loop arrival schedule: statement i is due at start + i / rate,
/// whether or not the generator manages to send it then. Latency is taken
/// from the due time, so a stalled generator or server charges the wait
/// to every statement queued behind the stall.
struct OpenLoopSchedule {
  std::chrono::steady_clock::time_point start;
  double rate = 1;  // statements per second

  std::chrono::steady_clock::time_point Due(size_t i) const {
    return start +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(static_cast<double>(i) / rate));
  }
  double LatencyUs(size_t i,
                   std::chrono::steady_clock::time_point reply) const {
    return std::chrono::duration<double, std::micro>(reply - Due(i)).count();
  }
};

/// Resets the process's peak-resident-set high-water mark to its current
/// RSS (Linux /proc/self/clear_refs), so a later PeakRssMb() covers only
/// what happened after the reset. Returns false when unsupported.
bool ResetPeakRss();

/// Peak resident memory of this process in MiB (VmHWM).
double PeakRssMb();

}  // namespace codsbench

#endif  // CODSBENCH_STATS_H_
