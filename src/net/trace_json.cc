#include "net/trace_json.h"

#include <cstdio>

#include "net/json.h"
#include "util/cli.h"
#include "util/trace.h"

namespace htd::net {

namespace {

/// Nanoseconds rendered as fractional milliseconds.
std::string MsJson(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return std::string(buf);
}

/// Opens one span's object: a child carries its parent's id; a root leaves
/// it out and gets its children under "spans".
JsonWriter& WriteSpan(JsonWriter& json, const util::TraceSpan& span,
                      bool child) {
  json.Object().Field("id", util::TraceIdHex(span.id));
  if (child) json.Field("parent", util::TraceIdHex(span.parent));
  return json.Field("name", span.Name())
      .Raw("start_ms", MsJson(span.start_ns))
      .Raw("duration_ms", MsJson(span.duration_ns))
      .Field("tag", span.tag);
}

}  // namespace

HttpResponse HandleTrace(const HttpRequest& request) {
  long n;
  if (!util::ParseIntFlag(request.QueryOr("n", "16"), 1, 256, &n)) {
    return JsonErrorResponse(400,
                             "query parameter n must be an integer in [1, 256]");
  }
  util::TraceRegistry& registry = util::TraceRegistry::Instance();
  JsonWriter json;
  json.Object().Field("enabled", registry.enabled()).Array("traces");
  for (const util::TraceRegistry::RootTrace& trace :
       registry.RecentRoots(static_cast<size_t>(n))) {
    WriteSpan(json, trace.root, /*child=*/false).Array("spans");
    for (const util::TraceSpan& span : trace.spans) {
      WriteSpan(json, span, /*child=*/true).End();
    }
    json.End().End();
  }
  return JsonResponse(json);
}

}  // namespace htd::net
