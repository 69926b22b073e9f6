#include "report.h"

#include <cmath>
#include <cstdio>

#include "net/json.h"

namespace perfbench {

void Json::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
  }
}

void Json::Open(char c) {
  Separate();
  out_ += c;
  first_.push_back(true);
}

void Json::Close(char c) {
  out_ += c;
  first_.pop_back();
}

void Json::Key(const std::string& name) {
  Separate();
  AppendString(name);
  out_ += ": ";
  after_key_ = true;
}

void Json::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "0";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
}

void Json::Value(long v) {
  Separate();
  out_ += std::to_string(v);
}

void Json::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
}

void Json::Value(const std::string& v) {
  Separate();
  AppendString(v);
}

void Json::AppendString(const std::string& v) {
  out_ += '"';
  out_ += htd::net::JsonEscape(v);
  out_ += '"';
}

}  // namespace perfbench
