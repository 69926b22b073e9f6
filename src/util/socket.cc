#include "util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace htd::util {

namespace {

/// Parses a dotted-quad address; "localhost" is accepted as 127.0.0.1 (the
/// server is loopback-first; no DNS resolution, no external deps).
bool ParseAddress(const std::string& host, in_addr* out) {
  if (host.empty() || host == "localhost") {
    return inet_pton(AF_INET, "127.0.0.1", out) == 1;
  }
  return inet_pton(AF_INET, host.c_str(), out) == 1;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Socket> ListenTcp(const std::string& host, int port, int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (!ParseAddress(host, &addr.sin_addr)) {
    return Status::InvalidArgument("cannot parse listen address: " + host);
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal("bind(" + host + ":" + std::to_string(port) +
                            "): " + std::strerror(errno));
  }
  if (::listen(sock.fd(), backlog) != 0) {
    return Status::Internal(std::string("listen(): ") + std::strerror(errno));
  }
  return sock;
}

int LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return -1;
  return static_cast<int>(ntohs(addr.sin_port));
}

Socket AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return Socket();
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    // Persistent accept failures (EMFILE under fd exhaustion is the classic)
    // leave the pending connection readable, so a bare retry would spin the
    // accept loop at 100% CPU. Back off briefly before handing control back.
    timespec backoff{0, 10 * 1000 * 1000};  // 10 ms
    ::nanosleep(&backoff, nullptr);
    return Socket();
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

AcceptOutcome AcceptPolled(int listen_fd, int timeout_ms) {
  AcceptOutcome outcome;
  pollfd pfd{listen_fd, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return outcome;
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    outcome.soft_failure = true;
    outcome.error = errno;
    return outcome;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  outcome.socket = Socket(fd);
  return outcome;
}

StatusOr<Socket> ConnectTcp(const std::string& host, int port,
                            double timeout_seconds) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (!ParseAddress(host, &addr.sin_addr)) {
    return Status::InvalidArgument("cannot parse address: " + host);
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  SetRecvTimeout(sock.fd(), timeout_seconds);
  if (timeout_seconds > 0) {
    timeval tv;
    tv.tv_sec = static_cast<long>(timeout_seconds);
    tv.tv_usec = static_cast<long>((timeout_seconds - tv.tv_sec) * 1e6);
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal("connect(" + host + ":" + std::to_string(port) +
                            "): " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

void SetRecvTimeout(int fd, double seconds) {
  // A zero timeval is SO_RCVTIMEO's "no timeout": a reused socket must not
  // keep the bound an earlier exchange set.
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<long>(seconds);
    tv.tv_usec = static_cast<long>((seconds - tv.tv_sec) * 1e6);
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void SetSendTimeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv;
  tv.tv_sec = static_cast<long>(seconds);
  tv.tv_usec = static_cast<long>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

long RecvSome(int fd, char* buffer, size_t capacity) {
  while (true) {
    ssize_t n = ::recv(fd, buffer, capacity, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
    return -1;
  }
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

long SendNonBlocking(int fd, std::string_view data) {
  while (true) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
    return -1;
  }
}

void ShutdownRead(int fd) { ::shutdown(fd, SHUT_RD); }

}  // namespace htd::util
