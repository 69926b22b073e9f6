// Event-driven HTTP/1.1 server: epoll readiness loop, non-blocking sockets.
//
// Connection I/O never blocks a thread. One acceptor thread polls the
// listening socket, sheds past max_connections (503 + Retry-After), and
// hands accepted fds round-robin to a small worker ring of event loops —
// each loop owns an epoll set, a timer wheel, and the per-connection state
// machines (incremental request parse on readable, buffered partial writes
// on writable). Slow clients therefore cost memory, not threads: tens of
// thousands of idle keep-alive connections hold fds and parser buffers
// while loop_threads stays at a handful.
//
// A parsed request runs in two stages:
//
//   loop thread:  read ─► parse ─► stage ─┬─► finished response ─► write
//                                         │        (same thread, no hop)
//                                         └─► rest ─► IO pool (may block)
//   IO pool:      rest() ─► serialise ─► post back to the owning loop ─► write
//
// The stage (StagedHandler) runs on the loop that read the request and must
// not block. It either answers at once (a health probe, a cache hit) or
// hands back the work that waits as a closure for the io_threads pool
// (util::ThreadPool): a synchronous solve, a cache miss waiting on its
// flight, or any blocking Handler — the plain Handler constructor's stage
// defers everything. While a request is deferred its connection is
// quiescent in epoll; the pool posts the serialised response back to the
// owning loop through an eventfd-woken queue.
//
// Write interest (EPOLLOUT, level-triggered) is armed only while a response
// is partially flushed and disarmed the moment the buffer drains, so idle
// keep-alive connections never spin the loop.
//
// Timeouts run on a per-loop timer wheel instead of SO_RCVTIMEO (nothing
// blocks in recv any more):
//   - idle_timeout_seconds    keep-alive connection with no request bytes
//   - header_timeout_seconds  mid-request (slow-loris drip): reaped with 408
//   - write_timeout_seconds   response partially flushed to a stalled
//                             reader: abandoned, slot freed
//
// Shutdown: Stop() stops the acceptor, closes idle connections, lets
// deferred work finish and FLUSHES their in-flight responses (bounded
// by the write timeout), then joins the loops. Idempotent; called from the
// destructor.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace htd::net {

namespace internal {
class EventLoop;
}  // namespace internal

class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port (tests); read it back via port().
    int port = 0;
    int backlog = 64;
    /// Threads for work that waits (the IO pool): a deferred request
    /// blocks one for its full duration (a sync solve, a cache miss, a
    /// blocking Handler), so size ≥ the expected concurrent count of such
    /// requests. Requests answered on the loop never touch it, and idle
    /// connections never pin it: connection count is bounded by
    /// max_connections alone.
    int io_threads = 8;
    /// Event-loop worker ring: threads running epoll sets. Connection I/O
    /// is cheap; a few loops drive tens of thousands of sockets.
    int loop_threads = 2;
    /// Live-connection bound: connections accepted beyond it are answered
    /// 503 + Retry-After and closed on the acceptor thread. This is the
    /// transport-level half of load shedding — independent of io_threads
    /// since the epoll core stopped pinning a thread per connection.
    int max_connections = 64;
    /// Keep-alive connections idle (no request bytes) longer than this are
    /// closed.
    double idle_timeout_seconds = 30.0;
    /// A connection mid-request-head or mid-body making no progress past
    /// this is reaped with 408 (slow-loris guard). 0 = use idle timeout.
    double header_timeout_seconds = 10.0;
    /// A partially-flushed response stalled longer than this (peer not
    /// reading) is abandoned and the connection closed.
    double write_timeout_seconds = 30.0;
    HttpRequestParser::Limits limits;
  };

  /// What a request's loop stage hands back: the finished response, or,
  /// when `rest` is set, the work still to do, run on the IO pool because
  /// it waits (`response` is then unused).
  struct Staged {
    HttpResponse response;
    std::function<HttpResponse()> rest;
  };
  /// Runs on the event loop that read the request, so it must not block;
  /// it owns the request and may move it into `rest`.
  using StagedHandler = std::function<Staged(HttpRequest request)>;
  /// A handler that may block: its stage defers the whole request to the
  /// IO pool.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Live-connection states, sampled for the htd_connections{state=} gauges.
  struct ConnectionCounts {
    uint64_t idle = 0;        ///< keep-alive, between requests
    uint64_t reading = 0;     ///< request bytes partially received
    uint64_t dispatched = 0;  ///< deferred work running on the IO pool
    uint64_t writing = 0;     ///< response partially flushed
    uint64_t total() const { return idle + reading + dispatched + writing; }
  };

  HttpServer(Options options, StagedHandler handler);
  HttpServer(Options options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, starts the loop ring and the acceptor thread.
  util::Status Start();
  /// Stops accepting, drains in-flight responses, joins loops + acceptor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after a successful Start()).
  int port() const { return port_; }
  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  /// Connections refused with 503 because max_connections was reached.
  uint64_t connections_shed() const {
    return connections_shed_.load(std::memory_order_relaxed);
  }
  /// Connections reaped by a timeout (idle, header/slow-loris, or write).
  uint64_t connections_reaped() const {
    return connections_reaped_.load(std::memory_order_relaxed);
  }
  /// accept() failures after a readable poll (EMFILE under fd exhaustion is
  /// the classic); each costs one acceptor backoff instead of a spin.
  uint64_t accept_failures() const {
    return accept_failures_.load(std::memory_order_relaxed);
  }
  /// Current per-state connection counts across the loop ring.
  ConnectionCounts connection_counts() const;

 private:
  friend class internal::EventLoop;

  void AcceptLoop();
  /// Called by a loop when a connection closes (frees an admission slot).
  void OnConnectionClosed();

  Options options_;
  StagedHandler handler_;
  util::Socket listener_;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> connections_reaped_{0};
  std::atomic<uint64_t> accept_failures_{0};
  /// Live connections: incremented by the acceptor before hand-off,
  /// decremented by the owning loop on close. The shed check reads it.
  std::atomic<int64_t> live_connections_{0};
  std::thread acceptor_;
  std::vector<std::unique_ptr<internal::EventLoop>> loops_;
  std::unique_ptr<util::ThreadPool> io_pool_;
};

}  // namespace htd::net
