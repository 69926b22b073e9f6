#include "net/http_client.h"

#include "net/http.h"

namespace htd::net {

namespace {

/// The one wire path: request out, incremental response in. With a pool,
/// the request omits `Connection: close`, starts on an idle pooled socket
/// when one is held, and hands a reusable socket back.
FetchResult Exchange(ConnectionPool* pool, const std::string& host, int port,
                     const std::string& method, const std::string& target,
                     const std::string& body,
                     const FetchHeaders& extra_headers,
                     const FetchOptions& options) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: " + host + "\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  for (const auto& [key, value] : extra_headers) {
    wire += key + ": " + value + "\r\n";
  }
  if (pool == nullptr) wire += "Connection: close\r\n";
  wire += "\r\n";
  wire += body;

  const std::string key = host + ":" + std::to_string(port);
  FetchResult result;
  util::Socket sock = pool != nullptr ? pool->Take(key) : util::Socket();
  // A pooled socket may have been closed by the peer while it sat idle;
  // that shows as a failure before the first response byte, and earns one
  // retry on a fresh connection.
  bool reused = sock.valid();
  while (true) {
    if (!sock.valid()) {
      auto fresh =
          util::ConnectTcp(host, port, options.connect_timeout_seconds);
      if (!fresh.ok()) {
        result.transport = FetchResult::Transport::kConnectFailed;
        result.error = fresh.status().message();
        return result;
      }
      sock = std::move(*fresh);
    }
    // 0 clears any bound an earlier exchange left on a pooled socket.
    util::SetRecvTimeout(sock.fd(), options.read_timeout_seconds);
    if (!util::SendAll(sock.fd(), wire)) {
      if (reused) {
        sock.Close();
        reused = false;
        continue;
      }
      result.transport = FetchResult::Transport::kSendFailed;
      result.error = "send failed";
      return result;
    }

    // Incremental parse: a Content-Length-framed response completes the
    // moment its last body byte arrives, with no waiting for the server to
    // close the connection. Length-less responses frame by close via
    // Finish().
    HttpResponseParser parser;
    char buffer[16 * 1024];
    auto state = HttpResponseParser::State::kNeedMore;
    bool framed_by_close = false;
    bool received = false;
    bool stale = false;
    while (state == HttpResponseParser::State::kNeedMore) {
      long n = util::RecvSome(sock.fd(), buffer, sizeof(buffer));
      if ((n == 0 || n == -1) && reused && !received) {
        stale = true;  // EOF or reset before any byte: the peer closed it
        break;
      }
      if (n == 0) {
        state = parser.Finish();
        framed_by_close = true;
        break;
      }
      if (n < 0) {
        result.transport = n == -2 ? FetchResult::Transport::kRecvTimeout
                                   : FetchResult::Transport::kRecvFailed;
        result.error = n == -2 ? "response timed out" : "recv failed";
        return result;
      }
      received = true;
      state = parser.Consume(std::string_view(buffer, static_cast<size_t>(n)));
    }
    if (stale) {
      sock.Close();
      reused = false;
      continue;
    }

    if (state != HttpResponseParser::State::kDone) {
      result.transport = FetchResult::Transport::kParseFailed;
      result.error = "malformed HTTP response: " + parser.error();
      return result;
    }
    result.status = parser.status();
    result.headers = parser.headers();
    result.body = parser.body();
    result.transport = FetchResult::Transport::kOk;
    auto connection = result.headers.find("connection");
    if (pool != nullptr && !framed_by_close &&
        (connection == result.headers.end() ||
         !AsciiIEquals(connection->second, "close"))) {
      pool->Give(key, std::move(sock));
    }
    return result;
  }
}

}  // namespace

FetchResult HttpFetch(const std::string& host, int port,
                      const std::string& method, const std::string& target,
                      const std::string& body,
                      const FetchHeaders& extra_headers,
                      const FetchOptions& options) {
  return Exchange(nullptr, host, port, method, target, body, extra_headers,
                  options);
}

FetchResult ConnectionPool::Fetch(const std::string& host, int port,
                                  const std::string& method,
                                  const std::string& target,
                                  const std::string& body,
                                  const FetchHeaders& extra_headers,
                                  const FetchOptions& options) {
  return Exchange(this, host, port, method, target, body, extra_headers,
                  options);
}

util::Socket ConnectionPool::Take(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = idle_.find(key);
  if (it == idle_.end() || it->second.empty()) return util::Socket();
  util::Socket socket = std::move(it->second.front());
  it->second.pop_front();
  return socket;
}

void ConnectionPool::Give(const std::string& key, util::Socket socket) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::deque<util::Socket>& queue = idle_[key];
  if (queue.size() < kMaxIdlePerEndpoint) queue.push_back(std::move(socket));
}

}  // namespace htd::net
