#include "net/json.h"

#include <cmath>
#include <cstdio>

namespace htd::net {

std::string JsonEscape(const std::string& text) {
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

HttpResponse JsonErrorResponse(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\": \"" + JsonEscape(message) + "\"}\n";
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
  std::string out = "{";
  for (const util::MetricFamily& family : families) {
    if (family.type == "histogram") continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + JsonEscape(family.name) + "\": ";
    const std::vector<util::MetricSample>& samples = family.samples;
    if (samples.size() == 1 && samples[0].labels.empty()) {
      out += NumberOrNull(samples[0].value);
      continue;
    }
    out += "{";
    for (size_t i = 0; i < samples.size(); ++i) {
      out += (i > 0 ? ", \"" : "\"") + JsonEscape(LabelKey(samples[i].labels)) +
             "\": " + NumberOrNull(samples[i].value);
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace htd::net
