#include "util/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace htd::util {

void Histogram::Observe(double seconds) {
  int bucket = BucketIndex(seconds);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (seconds > 0) {
    sum_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                      std::memory_order_relaxed);
  }
}

int Histogram::BucketIndex(double seconds) {
  if (!(seconds > 0)) return 0;
  double us = seconds * 1e6;
  for (int i = 0; i < kFiniteBuckets; ++i) {
    if (us <= static_cast<double>(1ull << i)) return i;
  }
  return kFiniteBuckets;  // +Inf
}

double Histogram::BucketBound(int i) {
  return static_cast<double>(1ull << i) * 1e-6;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) return *e->counter;
  counters_.push_back(std::make_unique<Counter>());
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->type = "counter";
  entry->counter = counters_.back().get();
  entries_.push_back(std::move(entry));
  return *counters_.back();
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) return *e->histogram;
  histograms_.push_back(std::make_unique<Histogram>());
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->type = "histogram";
  entry->histogram = histograms_.back().get();
  entries_.push_back(std::move(entry));
  return *histograms_.back();
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const std::string& labels,
                                       const std::string& type,
                                       std::function<double()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name, labels)) {
    e->callback = std::move(callback);
    e->type = type;
    return;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->type = type;
  entry->callback = std::move(callback);
  entries_.push_back(std::move(entry));
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = help;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name,
                                              const std::string& labels) const {
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) return entry.get();
  }
  return nullptr;
}

double MetricsRegistry::Entry::Read() const {
  if (counter != nullptr) return static_cast<double>(counter->Value());
  return callback ? callback() : 0.0;
}

double MetricsRegistry::Value(const std::string& name,
                              const std::string& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = Find(name, labels);
  if (entry == nullptr || entry->histogram != nullptr) return std::nan("");
  return entry->Read();
}

std::string FormatMetricValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

namespace {

std::string WithLe(const std::string& labels, const std::string& le) {
  return (labels.empty() ? "" : labels + ",") + "le=\"" + le + "\"";
}

/// Family index of `name` in `families`, appending an empty family on first
/// sight.
size_t FamilyIndex(const std::string& name, std::vector<MetricFamily>* families,
                   std::map<std::string, size_t>* index) {
  auto [it, added] = index->emplace(name, families->size());
  if (added) families->push_back(MetricFamily{name, "", "", {}});
  return it->second;
}

bool IsMetricName(const std::string& name) {
  return !name.empty() && !std::isdigit(static_cast<unsigned char>(name[0])) &&
         name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:") ==
             std::string::npos;
}

/// `name="value"` pairs separated by commas; values may hold \-escapes.
bool IsLabelList(const std::string& labels) {
  size_t i = 0;
  while (i < labels.size()) {
    size_t eq = labels.find('=', i);
    if (eq == std::string::npos || !IsMetricName(labels.substr(i, eq - i)) ||
        eq + 1 >= labels.size() || labels[eq + 1] != '"') {
      return false;
    }
    for (i = eq + 2; i < labels.size() && labels[i] != '"';) {
      i += labels[i] == '\\' ? 2 : 1;
    }
    if (i >= labels.size()) return false;  // unterminated value
    if (++i == labels.size()) return true;
    if (labels[i] != ',' || ++i == labels.size()) return false;
  }
  return true;
}

}  // namespace

std::vector<MetricFamily> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricFamily> families;
  std::map<std::string, size_t> index;
  for (const auto& entry : entries_) {
    MetricFamily& family =
        families[FamilyIndex(entry->name, &families, &index)];
    if (family.type.empty()) {
      family.type = entry->type;
      auto help = help_.find(entry->name);
      if (help != help_.end()) family.help = help->second;
    }
    if (entry->histogram == nullptr) {
      family.samples.push_back({entry->name, entry->labels, entry->Read()});
      continue;
    }
    const Histogram& h = *entry->histogram;
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBucketCount; ++i) {
      cumulative += h.BucketValue(i);
      char bound[32] = "+Inf";
      if (i < Histogram::kFiniteBuckets) {
        std::snprintf(bound, sizeof(bound), "%g", Histogram::BucketBound(i));
      }
      family.samples.push_back({entry->name + "_bucket",
                                WithLe(entry->labels, bound),
                                static_cast<double>(cumulative)});
    }
    family.samples.push_back(
        {entry->name + "_sum", entry->labels, h.SumSeconds()});
    family.samples.push_back({entry->name + "_count", entry->labels,
                              static_cast<double>(h.Count())});
  }
  return families;
}

std::string MetricsRegistry::RenderPrometheus() const {
  return RenderPrometheusText(Collect());
}

std::string RenderPrometheusText(const std::vector<MetricFamily>& families) {
  std::string out;
  out.reserve(4096);
  for (const MetricFamily& family : families) {
    if (!family.help.empty()) {
      out += "# HELP " + family.name + " " + family.help + "\n";
    }
    if (!family.type.empty()) {
      out += "# TYPE " + family.name + " " + family.type + "\n";
    }
    for (const MetricSample& sample : family.samples) {
      out += sample.name;
      if (!sample.labels.empty()) out += "{" + sample.labels + "}";
      out += " " + FormatMetricValue(sample.value) + "\n";
    }
  }
  return out;
}

std::vector<MetricFamily> ParsePrometheusText(const std::string& text) {
  std::vector<MetricFamily> families;
  std::map<std::string, size_t> index;
  std::string histogram;  // the family named by the last TYPE histogram line
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const bool help = line.rfind("# HELP ", 0) == 0;
    if (help || line.rfind("# TYPE ", 0) == 0) {
      size_t name_end = line.find(' ', 7);
      if (name_end == std::string::npos) continue;
      const std::string name = line.substr(7, name_end - 7);
      const std::string rest = line.substr(name_end + 1);
      if (!IsMetricName(name)) continue;
      if (!help && rest != "counter" && rest != "gauge" &&
          rest != "histogram" && rest != "summary" && rest != "untyped") {
        continue;
      }
      MetricFamily& family = families[FamilyIndex(name, &families, &index)];
      (help ? family.help : family.type) = rest;
      if (!help) histogram = rest == "histogram" ? name : "";
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    // `name[{labels}] value`
    size_t value_cut = line.rfind(' ');
    if (value_cut == std::string::npos || value_cut + 1 == line.size()) continue;
    const std::string value_text = line.substr(value_cut + 1);
    char* end = nullptr;
    MetricSample sample;
    sample.value = std::strtod(value_text.c_str(), &end);
    if (end != value_text.c_str() + value_text.size()) continue;
    size_t brace = line.find('{');
    if (brace < value_cut) {
      if (line[value_cut - 1] != '}') continue;
      sample.labels = line.substr(brace + 1, value_cut - brace - 2);
      if (!IsLabelList(sample.labels)) continue;
    } else {
      brace = value_cut;
    }
    sample.name = line.substr(0, brace);
    if (!IsMetricName(sample.name)) continue;
    // The _bucket/_sum/_count series after a histogram's TYPE line belong
    // to its family.
    const std::string suffix =
        sample.name.substr(std::min(histogram.size() + 1, sample.name.size()));
    const bool in_histogram =
        !histogram.empty() && sample.name == histogram + "_" + suffix &&
        (suffix == "bucket" || suffix == "sum" || suffix == "count");
    families[FamilyIndex(in_histogram ? histogram : sample.name, &families,
                         &index)]
        .samples.push_back(std::move(sample));
  }
  return families;
}

}  // namespace htd::util
