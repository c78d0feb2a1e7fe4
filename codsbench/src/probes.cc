#include "probes.h"

#include <filesystem>

#include <pthread.h>
#include <sched.h>

#include "durability/checkpoint.h"

namespace codsbench {

class CountingFile : public cods::WritableFile {
 public:
  CountingFile(CountingEnv* env, std::unique_ptr<cods::WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  cods::Status Append(const void* data, size_t n) override {
    cods::Status st = base_->Append(data, n);
    if (st.ok()) env_->bytes_.fetch_add(n);
    return st;
  }
  cods::Status Sync() override { return base_->Sync(); }
  cods::Status Close() override { return base_->Close(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<cods::WritableFile> base_;
};

cods::Result<std::unique_ptr<cods::WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool append) {
  CODS_ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path, append));
  return std::unique_ptr<cods::WritableFile>(
      std::make_unique<CountingFile>(this, std::move(file)));
}

cods::Status CountingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  cods::Status st = base_->RenameFile(from, to);
  const std::string name = std::filesystem::path(to).filename().string();
  if (st.ok() && name == cods::kCheckpointFileName) checkpoints_.fetch_add(1);
  return st;
}

IdleSpinners::IdleSpinners(int threads) {
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      // A spinner that cannot drop to SCHED_IDLE would compete with the
      // program for the CPU, so it does not spin at all.
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace codsbench
