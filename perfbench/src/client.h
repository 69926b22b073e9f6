// Open-loop HTTP client over keep-alive loopback connections.
//
// Every request has a due time on a fixed-rate schedule and a pool. A pool
// is a few keep-alive connections to one port, each driven by one thread;
// the threads take the pool's requests in due order, so a request goes out
// on whichever connection is free first, at its due time, or at once when
// it is already late (every connection still busy). Latency is measured
// from the due time (stats.h AccountOpenLoop), so a stall is charged to
// every request queued behind it; lateness records how far the generator
// itself fell behind.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Send {
  double due_s = 0.0;     ///< offset from the schedule start
  int pool = 0;
  int cls = 0;            ///< workload-defined class (what the generator sent)
  int item = 0;           ///< workload-defined item index
  const std::string* request = nullptr;  ///< complete HTTP request bytes
};

struct Reply {
  bool transport_ok = false;
  int status = 0;
  std::string body;
  std::string server_timing;
  double latency_ms = 0.0;  ///< done - due
  double late_ms = 0.0;     ///< max(0, sent - due)
  double rtt_ms = 0.0;      ///< done - sent
  uint64_t span = 0;        ///< root span id when traced
  int64_t sent_ns = 0;      ///< span-log clock, when traced
};

/// `connections` keep-alive connections to a loopback port.
struct Pool {
  int port = 0;
  int connections = 1;
};

/// Runs `sends` (any order) against `pools[send.pool]`, starting the
/// schedule 50 ms from now. Replies are index-aligned with `sends`. With a
/// span log, each request gets a root span "client.request" and carries its
/// id in x-perfbench-span.
std::vector<Reply> RunOpenLoop(const std::vector<Send>& sends,
                               const std::vector<Pool>& pools, SpanLog* log);

/// Closed-loop exchanges over one keep-alive connection, in order (set-up
/// warm-up). Replies are index-aligned with `requests`.
std::vector<Reply> ExchangeAll(int port, const std::vector<std::string>& requests);

/// POST /v1/decompose request bytes for a HyperBench body.
std::string DecomposeRequest(const std::string& body, int k, double timeout_s);

/// Parses "name;dur=ms, ..." into (name, ms) pairs.
std::vector<std::pair<std::string, double>> ParseServerTiming(const std::string& header);

}  // namespace perfbench
