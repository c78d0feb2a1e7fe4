#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace codsbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return samples[std::min(rank, samples.size()) - 1];
}

bool PercentileSupported(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank && n - rank >= 10;
}

void LatencyLog::Append(const LatencyLog& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  failed_ += other.failed_;
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace codsbench
