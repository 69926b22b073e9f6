// The two routes that carry a workload body, /v1/decompose and /v1/query,
// as both front-ends see them: how the body parses, which fingerprint names
// its owning shard, and the words of the refusals. The shard router parses
// a body to pick its shard and the backend parses it again to admit it, so
// both sides of a hop refuse a bad body with the same text. The same holds
// for the shard map spec that begins a live reshard.
#pragma once

#include <string>

#include "cq/query.h"
#include "hypergraph/parser.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "service/shard_map.h"
#include "util/status.h"

namespace htd::net {

template <typename T>
struct BodyRoute {
  using Body = T;
  const char* empty_body;   // the 400 for an empty body
  const char* parse_error;  // prefix of the 400 for an unparsable one
  const char* subject;      // "misrouted: <subject> fingerprint ..."
  util::StatusOr<T> (*parse)(const std::string& text);
  service::Fingerprint (*fingerprint)(const T& body);
};

inline const BodyRoute<Hypergraph> kDecomposeRoute{
    "empty body: expected a hypergraph in HyperBench or PACE format",
    "cannot parse hypergraph: ", "instance", ParseAuto,
    [](const Hypergraph& graph) { return service::CanonicalFingerprint(graph); }};

// A query is owned by the fingerprint of its HYPERGRAPH, so the
// decomposition state it warms (k-sweep probes included) lands on the shard
// that will be asked for it again.
inline const BodyRoute<qa::QueryRequest> kQueryRoute{
    "empty body: expected an HTDQUERY1 query request (docs/QUERIES.md)",
    "cannot parse query request: ", "query", qa::ParseQueryRequest,
    [](const qa::QueryRequest& request) {
      return service::CanonicalFingerprint(cq::QueryHypergraph(request.query));
    }};

/// The body of the two routes that begin a live reshard, the router's
/// POST /v1/admin/transition and the backend's POST /v1/admin/migrate: a
/// shard map spec, trailing CR/LF ignored. InvalidArgument (answered 400)
/// for an empty or unparsable body.
inline util::StatusOr<service::ShardMap> ParseMapSpecBody(std::string spec) {
  if (spec.empty()) {
    return util::Status::InvalidArgument(
        "empty body: expected the new shard map spec "
        "(host:port,host:port*2,...)");
  }
  while (!spec.empty() && (spec.back() == '\n' || spec.back() == '\r')) {
    spec.pop_back();
  }
  auto map = service::ShardMap::Parse(spec);
  if (!map.ok()) {
    return util::Status::InvalidArgument("cannot parse new shard map: " +
                                         map.status().message());
  }
  return map;
}

}  // namespace htd::net
