// Measurement plumbing that sits outside the layers: a counting Env for
// the durability layer's bytes, fsyncs and checkpoints, a clock, and
// idle-class spinners that keep the machine's CPUs awake.
#ifndef CODSBENCH_PROBES_H_
#define CODSBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"

namespace codsbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Forwards to a base Env (the real POSIX env) and counts what the
/// durability layer writes: appended bytes and checkpoint installs
/// (renames onto the CHECKPOINT file). Counters are atomic, so the harness
/// may read them while the server's writer runs.
class CountingEnv : public cods::Env {
 public:
  explicit CountingEnv(cods::Env* base) : base_(base) {}

  uint64_t bytes_appended() const { return bytes_.load(); }
  uint64_t checkpoints() const { return checkpoints_.load(); }

  cods::Result<std::unique_ptr<cods::WritableFile>> NewWritableFile(
      const std::string& path, bool append) override;
  cods::Result<std::vector<uint8_t>> ReadFile(
      const std::string& path) override {
    return base_->ReadFile(path);
  }
  cods::Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  cods::Status RenameFile(const std::string& from,
                          const std::string& to) override;
  cods::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  cods::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  cods::Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  cods::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return base_->ListDir(path);
  }

 private:
  friend class CountingFile;
  cods::Env* base_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> checkpoints_{0};
};

/// Keeps every CPU out of its idle (halt) state while it lives: one
/// spinning thread per CPU in the lowest scheduling class, SCHED_IDLE,
/// which runs only when nothing else wants that CPU and yields at once to
/// any thread that wakes there. On a VM a halted vCPU is resumed by the
/// host's scheduler, whose delay varies with the neighbours' load; with
/// every vCPU awake, a wake-up costs only the guest kernel's work.
class IdleSpinners {
 public:
  /// Starts `threads` spinners (none for 0).
  explicit IdleSpinners(int threads);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The number of CPUs this process may run on (what `nproc` prints).
int CpuCount();

/// Removes a directory tree the benchmark created (no-op when absent).
void RemoveTree(const std::string& path);

}  // namespace codsbench

#endif  // CODSBENCH_PROBES_H_
