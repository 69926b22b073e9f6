// In-memory span log for the traced run.
//
// Spans are recorded from the benchmark's own files around calls into the
// program (client request, router Handle, Solve(k) probes, corpus
// instances) plus children rebuilt from each response's Server-Timing
// header. Nothing is written while the workload runs: WriteJsonLines() and
// SelfTimes() run after it ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t root = 0;    ///< id of the request / instance the span belongs to
  std::string name;     ///< "<layer>.<what>", e.g. "router.handle"
  int64_t start_ns = 0; ///< steady clock, relative to the log's epoch
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  void Add(Span span);
  /// Convenience: records [start, end) with the given ids.
  void Add(uint64_t id, uint64_t parent, uint64_t root, std::string name,
           Clock::time_point start, Clock::time_point end);

  /// One JSON object per line, in recording order.
  bool WriteJsonLines(const std::string& path) const;

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Per span name: summed self time (duration minus the union of its
  /// children's intervals, clipped to the span) and span count.
  struct SelfTime {
    double total_ms = 0.0;
    long count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

 private:
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
