#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

bool TailResolved(size_t n, double q) {
  if (n == 0) return false;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         const std::vector<int>& window, double q) {
  std::vector<std::vector<double>> by_window;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (window[i] < 0) continue;
    if (static_cast<size_t>(window[i]) >= by_window.size()) by_window.resize(window[i] + 1);
    by_window[window[i]].push_back(samples[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : by_window) {
    if (TailResolved(w.size(), q)) per_window.push_back(Percentile(std::move(w), q));
  }
  if (per_window.empty()) {
    if (!TailResolved(samples.size(), q)) return std::nullopt;
    return Percentile(samples, q);
  }
  return Median(std::move(per_window));
}

double CensoredShiftedGeoMean(const std::vector<double>& times,
                              const std::vector<bool>& solved, double deadline,
                              double shift) {
  if (times.empty()) return 0.0;
  double log_sum = 0.0;
  for (size_t i = 0; i < times.size(); ++i) {
    const double t = solved[i] ? std::clamp(times[i], 0.0, deadline) : deadline;
    log_sum += std::log(t + shift);
  }
  return std::exp(log_sum / static_cast<double>(times.size())) - shift;
}

OpenLoopTiming AccountOpenLoop(Clock::time_point due, Clock::time_point sent,
                               Clock::time_point done) {
  using Ms = std::chrono::duration<double, std::milli>;
  OpenLoopTiming timing;
  timing.latency_ms = Ms(done - due).count();
  timing.late_ms = std::max(0.0, Ms(sent - due).count());
  return timing;
}

Clock::time_point DueTime(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

namespace {

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

}  // namespace

bool RunSelfChecks(std::string* error) {
  auto fail = [error](const char* what) {
    *error = what;
    return false;
  };

  // Percentile: nearest rank over 1..100.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  if (!Near(Percentile(hundred, 0.5), 50)) return fail("p50 of 1..100 != 50");
  if (!Near(Percentile(hundred, 0.99), 99)) return fail("p99 of 1..100 != 99");
  if (!Near(Percentile(hundred, 1.0), 100)) return fail("p100 of 1..100 != 100");
  if (!Near(Percentile(hundred, 0.0), 1)) return fail("p0 of 1..100 != 1");
  if (!Near(Percentile({7}, 0.99), 7)) return fail("percentile of one sample");
  if (Percentile({}, 0.5) != 0.0) return fail("percentile of no samples != 0");

  // The percentile rule: >= 10 samples strictly beyond the rank.
  if (TailResolved(999, 0.99)) return fail("p99 resolved with 999 samples");
  if (!TailResolved(1000, 0.99)) return fail("p99 unresolved with 1000 samples");
  if (TailResolved(19, 0.5)) return fail("p50 resolved with 19 samples");
  if (!TailResolved(20, 0.5)) return fail("p50 unresolved with 20 samples");
  if (TailResolved(0, 0.5)) return fail("percentile resolved with no samples");

  // Windowed percentile: three windows of 20 samples with p50 = 10, 20, 30
  // and one window too small to resolve a p50 (ignored) → median 20.
  {
    std::vector<double> values;
    std::vector<int> windows;
    for (int w = 0; w < 3; ++w) {
      for (int i = 0; i < 20; ++i) {
        values.push_back((w + 1) * 10.0);
        windows.push_back(w);
      }
    }
    values.push_back(1000.0);
    windows.push_back(3);
    if (WindowedPercentile(values, windows, 0.5) != std::optional<double>(20)) {
      return fail("windowed p50 is not the median of the window p50s");
    }
    // No window resolves a p50 (10 samples each), but all 30 together do:
    // falls back to the pooled percentile, rank 15 of 1..30.
    std::vector<double> pooled;
    std::vector<int> small_windows;
    for (int i = 1; i <= 30; ++i) {
      pooled.push_back(i);
      small_windows.push_back((i - 1) / 10);
    }
    if (WindowedPercentile(pooled, small_windows, 0.5) != std::optional<double>(15)) {
      return fail("windowed percentile fallback to the pooled percentile");
    }
    // Not even the pool resolves it: unresolved, never a number.
    if (WindowedPercentile({1, 2, 3}, {0, 1, 2}, 0.5).has_value()) {
      return fail("windowed percentile reported below the percentile rule");
    }
    if (WindowedPercentile(pooled, small_windows, 0.99).has_value()) {
      return fail("windowed p99 of 30 samples reported");
    }
  }

  // Censored shifted geometric mean (shift 10, deadline 1000).
  // All solved at 0 → exp(ln 10) - 10 = 0.
  if (!Near(CensoredShiftedGeoMean({0, 0}, {true, true}, 1000, 10), 0)) {
    return fail("sgm of zeros != 0");
  }
  // {90, 990}: exp((ln 100 + ln 1000) / 2) - 10 = sqrt(1e5) - 10.
  if (!Near(CensoredShiftedGeoMean({90, 990}, {true, true}, 1000, 10),
            std::sqrt(1e5) - 10)) {
    return fail("sgm of {90, 990}");
  }
  // An unsolved item counts at the deadline whatever time it reports.
  const double censored = CensoredShiftedGeoMean({90, 5}, {true, false}, 990, 10);
  if (!Near(censored, std::sqrt(1e5) - 10)) return fail("sgm censoring");
  // A solved time past the deadline is clamped to it.
  if (!Near(CensoredShiftedGeoMean({5000}, {true}, 990, 10), 990)) {
    return fail("sgm clamp");
  }

  // Open-loop accounting: a request sent 30 ms late and answered 5 ms after
  // sending has latency 35 ms measured from its due time, lateness 30 ms.
  const Clock::time_point t0{};
  using std::chrono::milliseconds;
  OpenLoopTiming late =
      AccountOpenLoop(t0, t0 + milliseconds(30), t0 + milliseconds(35));
  if (!Near(late.latency_ms, 35) || !Near(late.late_ms, 30)) {
    return fail("open-loop accounting of a late send");
  }
  // Sending early (ahead of schedule) is never negative lateness.
  OpenLoopTiming early =
      AccountOpenLoop(t0 + milliseconds(10), t0, t0 + milliseconds(12));
  if (!Near(early.late_ms, 0) || !Near(early.latency_ms, 2)) {
    return fail("open-loop accounting of an early send");
  }
  // Due times: request 250 of a 100/s schedule is due 2.5 s after start.
  if (DueTime(t0, 250 / 100.0) - t0 != milliseconds(2500)) {
    return fail("open-loop due time");
  }
  return true;
}

}  // namespace perfbench
