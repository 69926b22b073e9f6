#include "net/json.h"

#include <cmath>
#include <cstdio>

namespace htd::net {

namespace {

/// Seconds every shedding refusal asks the client to wait.
constexpr int kRetryAfterSeconds = 1;

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::Next() {
  if (!first_) out_ += ", ";
  first_ = false;
}

void JsonWriter::Key(std::string_view key) {
  Next();
  out_ += "\"" + JsonEscape(key) + "\": ";
}

void JsonWriter::Push(char open, char close) {
  out_ += open;
  closers_ += close;
  first_ = true;
}

JsonWriter& JsonWriter::Object() {
  Next();
  Push('{', '}');
  return *this;
}

JsonWriter& JsonWriter::Object(std::string_view key) {
  Key(key);
  Push('{', '}');
  return *this;
}

JsonWriter& JsonWriter::Array(std::string_view key) {
  Key(key);
  Push('[', ']');
  return *this;
}

JsonWriter& JsonWriter::End() {
  out_ += closers_.back();
  closers_.pop_back();
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, std::string_view value) {
  return Raw(key, "\"" + JsonEscape(value) + "\"");
}

JsonWriter& JsonWriter::Raw(std::string_view key, std::string_view json) {
  Key(key);
  out_ += json;
  return *this;
}

std::string JsonWriter::Finish() {
  while (!closers_.empty()) End();
  return std::move(out_);
}

HttpResponse JsonResponse(JsonWriter& json, int status) {
  HttpResponse response;
  response.status = status;
  response.body = json.Finish() + "\n";
  return response;
}

HttpResponse JsonErrorResponse(int status, const std::string& message) {
  JsonWriter json;
  json.Object().Field("error", message);
  return JsonResponse(json, status);
}

HttpResponse RetryLaterResponse(int status, const std::string& message) {
  HttpResponse response = JsonErrorResponse(status, message);
  response.headers.emplace_back("Retry-After", std::to_string(kRetryAfterSeconds));
  return response;
}

const char* RouteLabel(const std::string& path) {
  if (path == "/v1/decompose") return "decompose";
  if (path == "/v1/query") return "query";
  if (path.rfind("/v1/jobs/", 0) == 0) return "jobs";
  if (path == "/v1/stats") return "stats";
  if (path == "/v1/metrics") return "metrics";
  if (path == "/v1/trace") return "trace";
  if (path.rfind("/v1/admin/", 0) == 0) return "admin";
  if (path == "/healthz") return "healthz";
  return "other";
}

namespace {

/// The JSON key of one series in a labelled family: the label value
/// (`result="shed"` -> `shed`), or the whole list when there are several.
std::string LabelKey(const std::string& labels) {
  const size_t open = labels.find("=\"");
  if (open == std::string::npos || labels.find("\",") != std::string::npos) {
    return labels;
  }
  return labels.substr(open + 2, labels.size() - open - 3);
}

std::string NumberOrNull(double value) {
  return std::isfinite(value) ? util::FormatMetricValue(value) : "null";
}

}  // namespace

std::string RenderMetricsJson(const std::vector<util::MetricFamily>& families) {
  JsonWriter json;
  json.Object();
  for (const util::MetricFamily& family : families) {
    if (family.type == "histogram") continue;
    const std::vector<util::MetricSample>& samples = family.samples;
    if (samples.size() == 1 && samples[0].labels.empty()) {
      json.Raw(family.name, NumberOrNull(samples[0].value));
      continue;
    }
    json.Object(family.name);
    for (const util::MetricSample& sample : samples) {
      json.Raw(LabelKey(sample.labels), NumberOrNull(sample.value));
    }
    json.End();
  }
  return json.Finish();
}

}  // namespace htd::net
