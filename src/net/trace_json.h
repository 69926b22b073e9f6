// GET /v1/trace?n=K, the process's recent traces as JSON, served alike by
// the backend server and the shard router:
//
//   {"enabled": true, "traces": [
//     {"id": "<16 hex>", "name": "request", "start_ms": ..,
//      "duration_ms": .., "tag": .., "spans": [
//        {"id": .., "parent": .., "name": "solve", "start_ms": ..,
//         "duration_ms": .., "tag": ..}, ...]}, ...]}
//
// Traces are the most recent completed ROOT spans (newest first), children
// attached sorted by start time. Ids are 16 lowercase hex digits — the same
// encoding as the X-HTD-Request-Id header, so an operator can grep a
// response header straight into this output.
#pragma once

#include "net/http.h"

namespace htd::net {

/// The answer to GET /v1/trace: the `n` most recent traces (default 16;
/// an n outside [1, 256] is a 400).
HttpResponse HandleTrace(const HttpRequest& request);

}  // namespace htd::net
