// Tiny response helpers shared by the HTTP front-ends
// (net/decomposition_server.cc and net/shard_router.cc), so error bodies,
// escaping, route labels and the /v1/stats metrics object behave
// identically on both sides of a proxy hop.
#pragma once

#include <string>
#include <vector>

#include "net/http.h"
#include "util/metrics.h"

namespace htd::net {

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters as \uXXXX).
std::string JsonEscape(const std::string& text);

/// The canonical error body: {"error": "<message>"} with the given status.
HttpResponse JsonErrorResponse(int status, const std::string& message);

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
