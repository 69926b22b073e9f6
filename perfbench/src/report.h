// Result of one workload run and the JSON it is reported as.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Minimal streaming JSON writer (objects, arrays, numbers, strings, bools).
class Json {
 public:
  void Begin() { Open('{'); }
  void End() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }
  /// Starts a named member whose value follows (Begin/BeginArray/Value).
  void Key(const std::string& name);

  void Value(double v);
  void Value(long v);
  void Value(int v) { Value(static_cast<long>(v)); }
  void Value(bool v);
  void Value(const std::string& v);
  void Value(const char* v) { Value(std::string(v)); }

  template <typename T>
  void Field(const std::string& name, const T& v) {
    Key(name);
    Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void Open(char c);
  void Close(char c);
  void Separate();
  void AppendString(const std::string& v);

  std::string out_;
  std::vector<bool> first_;  // per open container: no member written yet
  bool after_key_ = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `records` is a complete JSON object with
/// the per-item records; main.cc writes it to the run's records file.
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  ///< wrong answers, first 100 kept
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// The same numbers under their per-workload names (hw_solved,
  /// hit_p50_ms, ...), printed as text lines before the JSON line.
  std::vector<Metric> named;
  std::string records;

  /// End-to-end metrics the run could not measure (a percentile with too
  /// few samples); the run then prints no result and exits non-zero.
  std::vector<std::string> unmeasured;

  void WrongAnswer(std::string what) {
    correct = false;
    if (errors.size() < 100) errors.push_back(std::move(what));
  }
};

}  // namespace perfbench
