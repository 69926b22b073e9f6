// One blocking HTTP/1.1 exchange over a raw TCP socket, with or without a
// pool of keep-alive connections.
//
// Every client in the tree goes through one exchange routine: the shard
// router's forwards (pooled, ConnectionPool::Fetch), and hdclient, hdreshard
// and the backend's migration pusher and anti-entropy pulls (one
// `Connection: close` socket per exchange, HttpFetch). It reports transport
// failures as a typed enum rather than an HTTP status: callers like the
// router must distinguish "the shard is down" (connect/send/recv failed →
// health bookkeeping, replica failover) from "the shard answered 5xx" (pass
// through verbatim).
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/socket.h"

namespace htd::net {

struct FetchOptions {
  /// Connect timeout.
  double connect_timeout_seconds = 5.0;
  /// Response read timeout; 0 = wait indefinitely (a synchronous solve with
  /// ?timeout=0 has no deadline).
  double read_timeout_seconds = 120.0;
};

struct FetchResult {
  /// Transport-level outcome; `status` and `body` are meaningful only on kOk.
  enum class Transport {
    kOk,
    kConnectFailed,
    kSendFailed,
    kRecvFailed,
    kRecvTimeout,
    kParseFailed,
  };

  Transport transport = Transport::kConnectFailed;
  int status = 0;
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
  std::string error;  ///< human-readable detail on transport failures

  bool ok() const { return transport == Transport::kOk; }
};

using FetchHeaders = std::vector<std::pair<std::string, std::string>>;

/// Sends `method target` with `body` and `extra_headers` to host:port on a
/// fresh connection and reads the response incrementally
/// (HttpResponseParser): a Content-Length response completes without
/// waiting for the peer to close; a length-less one is framed by close.
/// Host, Content-Length, and `Connection: close` are added automatically.
FetchResult HttpFetch(const std::string& host, int port,
                      const std::string& method, const std::string& target,
                      const std::string& body,
                      const FetchHeaders& extra_headers,
                      const FetchOptions& options);

/// Idle keep-alive connections, a queue per host:port, each capped at
/// kMaxIdlePerEndpoint. Thread-safe; one pool serves every thread of its
/// owner (the shard router's IO threads and its fan-out workers).
///
/// The queue is used oldest first, so forwards rotate over every pooled
/// connection. A backend pins each connection to one of its event loops;
/// a stack would send nearly all traffic over the top socket and so
/// through one loop, which on serve-warm read higher routed p50 and p99.
class ConnectionPool {
 public:
  /// Idle sockets kept per endpoint. A router IO thread holds at most one
  /// socket per exchange, so this matches hdserver's default --io-threads:
  /// a busy router keeps one warm socket per thread and closes the excess.
  static constexpr size_t kMaxIdlePerEndpoint = 8;

  /// HttpFetch over a pooled connection, without `Connection: close`. The
  /// socket goes back to the pool only after a complete, Content-Length-
  /// framed response that did not say `close`. A pooled socket that fails
  /// before any response byte arrives (send error, EOF or reset — the
  /// backend's idle reaper closed it) is retried once on a fresh
  /// connection, so a stale socket is never reported as a transport
  /// failure.
  FetchResult Fetch(const std::string& host, int port,
                    const std::string& method, const std::string& target,
                    const std::string& body, const FetchHeaders& extra_headers,
                    const FetchOptions& options);

  /// The longest-idle socket for "host:port", or an invalid one when none
  /// is held.
  util::Socket Take(const std::string& key);
  /// Keeps `socket` for "host:port" unless that queue is full (then the
  /// socket closes).
  void Give(const std::string& key, util::Socket socket);

 private:
  std::mutex mutex_;
  std::map<std::string, std::deque<util::Socket>> idle_;  // guarded by mutex_
};

}  // namespace htd::net
