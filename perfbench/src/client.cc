#include "client.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "net/http.h"
#include "util/socket.h"

namespace perfbench {

namespace {

constexpr double kTimeoutS = 60.0;

/// One keep-alive connection; reconnects after a transport failure.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}

  /// Connects unless already connected; false on failure.
  bool Open() {
    if (socket_.valid()) return true;
    auto connected = htd::util::ConnectTcp("127.0.0.1", port_, 5.0);
    if (!connected.ok()) return false;
    socket_ = std::move(*connected);
    htd::util::SetRecvTimeout(socket_.fd(), kTimeoutS);
    htd::util::SetSendTimeout(socket_.fd(), kTimeoutS);
    return true;
  }

  /// Sends `request` and reads one response into `reply`.
  void Exchange(const std::string& request, Reply* reply) {
    reply->transport_ok = false;
    if (!Open()) return;
    if (!htd::util::SendAll(socket_.fd(), request)) {
      socket_.Close();
      return;
    }
    htd::net::HttpResponseParser parser;
    char buffer[16384];
    htd::net::HttpResponseParser::State state =
        htd::net::HttpResponseParser::State::kNeedMore;
    while (state == htd::net::HttpResponseParser::State::kNeedMore) {
      const long n = htd::util::RecvSome(socket_.fd(), buffer, sizeof(buffer));
      if (n <= 0) {
        state = n == 0 ? parser.Finish() : htd::net::HttpResponseParser::State::kError;
        socket_.Close();
        break;
      }
      state = parser.Consume(std::string_view(buffer, static_cast<size_t>(n)));
    }
    if (state != htd::net::HttpResponseParser::State::kDone) {
      socket_.Close();
      return;
    }
    reply->transport_ok = true;
    reply->status = parser.status();
    reply->body = parser.body();
    auto timing = parser.headers().find("server-timing");
    if (timing != parser.headers().end()) reply->server_timing = timing->second;
    auto connection = parser.headers().find("connection");
    if (connection != parser.headers().end() &&
        htd::net::AsciiIEquals(connection->second, "close")) {
      socket_.Close();
    }
  }

 private:
  int port_;
  htd::util::Socket socket_;
};

/// Sleeps until shortly before `due`, then spins: a timer wake-up can be
/// late by a good share of a sub-millisecond request, and that jitter would
/// be charged to the program as latency.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(300));
  while (Clock::now() < due) {
  }
}

std::string WithSpanHeader(const std::string& request, uint64_t span) {
  const size_t eol = request.find("\r\n");
  return request.substr(0, eol + 2) + "x-perfbench-span: " + std::to_string(span) +
         "\r\n" + request.substr(eol + 2);
}

}  // namespace

std::vector<Reply> RunOpenLoop(const std::vector<Send>& sends,
                               const std::vector<Pool>& pools, SpanLog* log) {
  std::vector<Reply> replies(sends.size());
  std::vector<std::vector<size_t>> queue(pools.size());  // per pool, due order
  for (size_t i = 0; i < sends.size(); ++i) queue[sends[i].pool].push_back(i);
  for (auto& order : queue) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sends[a].due_s < sends[b].due_s;
    });
  }
  std::vector<std::atomic<size_t>> next(pools.size());
  // Connect everything before the schedule starts.
  std::vector<std::pair<int, Connection>> connections;  // (pool, connection)
  for (size_t p = 0; p < pools.size(); ++p) {
    for (int c = 0; c < pools[p].connections; ++c) {
      connections.emplace_back(static_cast<int>(p), Connection(pools[p].port));
      connections.back().second.Open();  // a failure retries at the first send
    }
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);

  std::vector<std::thread> threads;
  for (auto& [pool, connection] : connections) {
    threads.emplace_back([&, pool = pool, connection = &connection] {
      const std::vector<size_t>& order = queue[pool];
      for (size_t at = next[pool]++; at < order.size(); at = next[pool]++) {
        const Send& send = sends[order[at]];
        Reply& reply = replies[order[at]];
        const Clock::time_point due = DueTime(start, send.due_s);
        WaitUntil(due);
        const Clock::time_point sent = Clock::now();
        if (log != nullptr) {
          reply.span = log->NextId();
          connection->Exchange(WithSpanHeader(*send.request, reply.span), &reply);
        } else {
          connection->Exchange(*send.request, &reply);
        }
        const Clock::time_point done = Clock::now();
        const OpenLoopTiming timing = AccountOpenLoop(due, sent, done);
        reply.latency_ms = timing.latency_ms;
        reply.late_ms = timing.late_ms;
        reply.rtt_ms = std::chrono::duration<double, std::milli>(done - sent).count();
        if (log != nullptr) {
          reply.sent_ns = log->Ns(sent);
          log->Add(reply.span, 0, reply.span, "client.request", sent, done);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return replies;
}

std::vector<Reply> ExchangeAll(int port, const std::vector<std::string>& requests) {
  Connection connection(port);
  std::vector<Reply> replies(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) connection.Exchange(requests[i], &replies[i]);
  return replies;
}

std::string DecomposeRequest(const std::string& body, int k, double timeout_s) {
  char target[128];
  std::snprintf(target, sizeof(target),
                "/v1/decompose?k=%d&decomposition=1&timeout=%g", k, timeout_s);
  return std::string("POST ") + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/plain\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<std::pair<std::string, double>> ParseServerTiming(const std::string& header) {
  std::vector<std::pair<std::string, double>> stages;
  size_t pos = 0;
  while (pos < header.size()) {
    size_t end = header.find(',', pos);
    if (end == std::string::npos) end = header.size();
    const std::string item = header.substr(pos, end - pos);
    const size_t semi = item.find(";dur=");
    if (semi != std::string::npos) {
      size_t name_start = item.find_first_not_of(' ');
      stages.emplace_back(item.substr(name_start, semi - name_start),
                          std::strtod(item.c_str() + semi + 5, nullptr));
    }
    pos = end + 1;
  }
  return stages;
}

}  // namespace perfbench
