#include "spans.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "report.h"

namespace perfbench {

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void SpanLog::Add(uint64_t id, uint64_t parent, uint64_t root, std::string name,
                  Clock::time_point start, Clock::time_point end) {
  Add(Span{id, parent, root, std::move(name), Ns(start), Ns(end)});
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    Json line;
    line.Begin();
    line.Field("id", static_cast<double>(s.id));
    line.Field("parent", static_cast<double>(s.parent));
    line.Field("root", static_cast<double>(s.root));
    line.Field("name", s.name);
    line.Field("start_ns", static_cast<double>(s.start_ns));
    line.Field("end_ns", static_cast<double>(s.end_ns));
    line.End();
    out << line.str() << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, SpanLog::SelfTime> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> intervals;
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (const auto& [lo, hi] : intervals) {
        if (cur_hi < lo) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    SelfTime& entry = out[s.name];
    entry.total_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    ++entry.count;
  }
  return out;
}

}  // namespace perfbench
