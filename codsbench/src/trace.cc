#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "stats.h"

namespace codsbench {

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[static_cast<size_t>(s.parent)];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t trace_id,
                   uint64_t items)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = trace_id;
  rec.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  rec.items = items;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(rec));
  tracer_->open_.push_back(index_);
  // Start last, so recording overhead falls outside the span.
  tracer_->spans_.back().start_ns = tracer_->NowNs();
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
}

void Tracer::AddClosed(const char* name, uint64_t trace_id, int64_t start_ns,
                       int64_t end_ns, uint64_t items) {
  if (!enabled_) return;
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = trace_id;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.items = items;
  spans_.push_back(std::move(rec));
}

std::map<std::string, double> Tracer::MedianSelfNsByName() const {
  const std::vector<int64_t> self_ns = SelfTimesNs(spans_);
  std::map<std::string, std::vector<double>> per_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double self = static_cast<double>(self_ns[i]);
    per_name[spans_[i].name].push_back(
        self / static_cast<double>(std::max<uint64_t>(spans_[i].items, 1)));
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : per_name) out[name] = Median(std::move(v));
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::vector<int64_t> self_ns = SelfTimesNs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"trace\":" << s.trace_id << ",\"parent\":" << s.parent
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"items\":" << s.items << ",\"self_ns\":" << self_ns[i]
      << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace codsbench
