// Tiny response helpers shared by the HTTP front-ends
// (net/decomposition_server.cc, net/shard_router.cc and the transport's own
// errors in net/server.cc): one JSON writer for every body, error bodies,
// escaping, route labels and the /v1/stats metrics object, so both sides of
// a proxy hop answer in the same shape.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.h"
#include "util/metrics.h"

namespace htd::net {

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters as \uXXXX).
std::string JsonEscape(std::string_view text);

/// Streaming writer for every JSON body the servers send, in their one
/// style: ", " between members and elements, ": " after each key, keys and
/// strings escaped with JsonEscape. For example
///   JsonWriter json;
///   json.Object().Field("job", id).Field("state", "running");
///   json.Finish()  // {"job": "j1", "state": "running"}
class JsonWriter {
 public:
  /// Opens an object: the document itself or an array element without a
  /// key, a member with one.
  JsonWriter& Object();
  JsonWriter& Object(std::string_view key);
  JsonWriter& Array(std::string_view key);
  /// Closes the innermost open object or array.
  JsonWriter& End();

  JsonWriter& Field(std::string_view key, std::string_view value);
  JsonWriter& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonWriter& Field(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  /// Six decimals, as std::to_string renders a double.
  JsonWriter& Field(std::string_view key, double value) {
    return Raw(key, std::to_string(value));
  }
  template <std::integral T>
  JsonWriter& Field(std::string_view key, T value) {
    return Raw(key, std::to_string(value));
  }
  /// `json` verbatim as the member's value: a number in another format, or
  /// an already rendered document.
  JsonWriter& Raw(std::string_view key, std::string_view json);

  /// Closes every open container and hands over the document.
  std::string Finish();

 private:
  /// The separator before a new member or element.
  void Next();
  /// Next(), then the member's quoted key.
  void Key(std::string_view key);
  void Push(char open, char close);

  std::string out_;
  std::string closers_;  // one per open container, innermost last
  bool first_ = true;    // nothing written yet in the innermost container
};

/// A response whose body is `json`'s document plus a trailing newline.
HttpResponse JsonResponse(JsonWriter& json, int status = 200);

/// The canonical error body: {"error": "<message>"} with the given status.
HttpResponse JsonErrorResponse(int status, const std::string& message);
/// JsonErrorResponse plus the one Retry-After every shedding refusal
/// carries: the backend's 429, the transport's and the router's 503s.
HttpResponse RetryLaterResponse(int status, const std::string& message);

/// `handler()` when `request` uses `method`, else the canonical 405
/// ("use <method> for <path>").
template <typename Handler>
HttpResponse OnlyMethod(const HttpRequest& request, const char* method,
                        Handler handler) {
  if (request.method != method) {
    return JsonErrorResponse(
        405, std::string("use ") + method + " for " + request.path);
  }
  return handler();
}

/// Route label for the per-route latency histograms. A small closed set, so
/// a client probing random paths cannot mint unbounded label values.
const char* RouteLabel(const std::string& path);

/// Renders metric families as one JSON object with a key per family, named
/// as on /v1/metrics; histogram families are left out. An unlabelled series
/// is a number, a labelled family an object keyed by label value (by the
/// whole label list when a series has several), e.g. {"htd_cache_entries": 2,
/// "htd_admission_requests_total": {"admitted": 2, "shed": 0}}. Non-finite
/// values render as null.
std::string RenderMetricsJson(const std::vector<util::MetricFamily>& families);

}  // namespace htd::net
