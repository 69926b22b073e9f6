// Thin TCP helpers over POSIX sockets: blocking primitives for the clients
// (net/http_client, tools/hdclient) and non-blocking primitives for the
// epoll readiness loop in net/server. Dependency-free by design — no
// external HTTP or event-loop library. Everything reports through
// util::Status / return codes: no exceptions, no global state (SIGPIPE is
// avoided per-send with MSG_NOSIGNAL).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace htd::util {

/// Owning wrapper for a socket file descriptor (closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// Releases ownership without closing.
  int Release();
  void Close();

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (port 0 = kernel-assigned ephemeral port).
/// SO_REUSEADDR is set so restarted servers rebind immediately.
StatusOr<Socket> ListenTcp(const std::string& host, int port, int backlog);

/// The local port a listening (or connected) socket is bound to.
int LocalPort(int fd);

/// Accepts one connection; blocks at most `timeout_ms` (so accept loops can
/// poll a shutdown flag). Returns an invalid Socket on timeout or on a
/// transient accept failure.
Socket AcceptWithTimeout(int listen_fd, int timeout_ms);

/// One poll-then-accept step for an accept loop that owns its own failure
/// policy (the epoll server's acceptor backs off on fd exhaustion instead
/// of spinning — the EMFILE guard lives in the LOOP, not here).
struct AcceptOutcome {
  Socket socket;       ///< valid iff a connection was accepted
  /// accept() itself failed after the listener polled readable — EMFILE /
  /// ENFILE / ENOBUFS and friends. The pending connection stays queued, so
  /// a bare retry would spin at 100% CPU; the caller must back off.
  bool soft_failure = false;
  int error = 0;       ///< errno of the soft failure
};
AcceptOutcome AcceptPolled(int listen_fd, int timeout_ms);

/// Connects to host:port; kUnavailable-flavoured Internal status on failure.
StatusOr<Socket> ConnectTcp(const std::string& host, int port,
                            double timeout_seconds);

/// Sets SO_RCVTIMEO so blocking reads fail with EAGAIN after the timeout;
/// `seconds` <= 0 clears it (reads block indefinitely).
void SetRecvTimeout(int fd, double seconds);

/// Sets SO_SNDTIMEO so blocking writes to a stalled peer eventually fail.
void SetSendTimeout(int fd, double seconds);

/// Writes the whole buffer (retrying partial sends); false on any error.
bool SendAll(int fd, std::string_view data);

/// One blocking read of up to `capacity` bytes into `buffer`. Returns the
/// byte count, 0 on orderly peer close, -1 on error, -2 on recv timeout.
/// On a non-blocking fd, -2 means "no bytes available right now" (EAGAIN),
/// which is exactly the readiness-loop contract.
long RecvSome(int fd, char* buffer, size_t capacity);

/// Puts the fd into non-blocking mode (O_NONBLOCK); false on fcntl failure.
bool SetNonBlocking(int fd);

/// One non-blocking send attempt. Returns the bytes written (possibly 0),
/// -1 on a hard error, -2 when the socket's send buffer is full (EAGAIN) —
/// the caller should arm write interest and retry on writability.
long SendNonBlocking(int fd, std::string_view data);

/// Half-closes the READ side only, unblocking any thread parked in recv on
/// this fd (it sees an orderly EOF) while leaving the write side usable —
/// an in-flight response can still be flushed. Used to tear down keep-alive
/// connections at server stop.
void ShutdownRead(int fd);

}  // namespace htd::util
