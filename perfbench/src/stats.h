// The benchmark's own maths: percentiles, the censored shifted geometric
// mean, and open-loop lateness accounting.
//
// Each function states its contract here; stats.cc checks every contract
// against hand-computed cases in RunSelfChecks(), which the harness runs
// before every workload (a failed check exits non-zero before anything is
// measured) and which `perfbench --selfcheck` runs alone.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` for q in [0, 1]: the value at
/// ascending rank ceil(q * n) (rank 1 for q = 0). 0 for an empty set.
/// Takes a copy: callers keep their sample order.
double Percentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// The percentile rule: a percentile q of n samples is reported only when at
/// least ten samples lie strictly beyond its nearest rank, i.e.
/// n - ceil(q * n) >= 10. So p99 needs n >= 1000 and p50 needs n >= 20.
bool TailResolved(size_t n, double q);

/// Windowed percentile: `samples[i]` fell in window `window[i]` (index-
/// aligned; windows are equal slices of the run's schedule). Returns the
/// median, over the windows whose own sample count satisfies TailResolved
/// for q, of each window's percentile q; a run too short for any such
/// window falls back to the percentile of all samples if TailResolved
/// allows that, and is unresolved (nullopt) otherwise. One bad window (a
/// hiccup on a shared machine) moves the result by at most one rank of the
/// median.
std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         const std::vector<int>& window, double q);

/// Shifted geometric mean with censoring at a deadline:
///   exp(mean(ln(t_i + shift))) - shift,
/// where t_i = times[i] for a solved item and t_i = deadline for an unsolved
/// one (and every t_i is clamped to [0, deadline]). `solved` is
/// index-aligned with `times`; all arguments share one unit. 0 for an empty
/// set.
double CensoredShiftedGeoMean(const std::vector<double>& times,
                              const std::vector<bool>& solved, double deadline,
                              double shift);

/// Open-loop accounting for one request. Request i of a fixed-rate schedule
/// is due at start + i / rate; the generator may send it late.
///   latency = done - due   (the wait a stall imposes on later requests
///                           counts against them, not just the stalled one)
///   late    = max(0, sent - due)   (how far behind the generator ran)
struct OpenLoopTiming {
  double latency_ms = 0.0;
  double late_ms = 0.0;
};
using Clock = std::chrono::steady_clock;
OpenLoopTiming AccountOpenLoop(Clock::time_point due, Clock::time_point sent,
                               Clock::time_point done);

/// Due time of a request `offset_s` into a schedule that starts at `start`
/// (request i of a fixed-rate schedule has offset i / rate).
Clock::time_point DueTime(Clock::time_point start, double offset_s);

/// Runs every contract check above; on failure returns false and describes
/// the first broken check in `*error`.
bool RunSelfChecks(std::string* error);

}  // namespace perfbench
