#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/json.h"
#include "util/logging.h"

namespace htd::net {

namespace internal {

using Clock = std::chrono::steady_clock;

namespace {

/// Timer wheel granularity and span: 20 ms ticks x 4096 slots ≈ 82 s
/// horizon, comfortably past the default 30 s idle timeout. Deadlines past
/// the horizon are parked at the rim and lazily re-inserted when they fire
/// early (the wheel stores check-times, not hard deadlines — the connection
/// carries the authoritative deadline).
constexpr auto kTick = std::chrono::milliseconds(20);
constexpr size_t kWheelSlots = 4096;

/// Per-event read budget: a firehose peer yields the loop back after this
/// many bytes; level-triggered EPOLLIN re-notifies immediately.
constexpr size_t kReadBudget = 256 * 1024;

}  // namespace

/// One member of the worker ring: an epoll set, a timer wheel, and the
/// state machines of every connection it owns. Connections are touched ONLY
/// by this loop's thread; the acceptor and the handler pool communicate
/// through the eventfd-woken inbox.
class EventLoop {
 public:
  explicit EventLoop(HttpServer* server) : server_(server) {}

  ~EventLoop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  util::Status Init() {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) {
      return util::Status::Internal(std::string("epoll_create1(): ") +
                                    std::strerror(errno));
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return util::Status::Internal(std::string("eventfd(): ") +
                                    std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return util::Status::Internal(std::string("epoll_ctl(wake): ") +
                                    std::strerror(errno));
    }
    return util::Status::Ok();
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Acceptor hand-off. Safe from any thread.
  void AddConnection(int fd) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      pending_fds_.push_back(fd);
    }
    Wake();
  }

  /// Handler completion hand-off: the serialised response for `conn_id`.
  /// Safe from any thread, including after the loop thread has exited
  /// (the bytes are then dropped — the connection is gone).
  void PostCompletion(uint64_t conn_id, int fd, std::string bytes, bool close) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      completions_.push_back(Completion{conn_id, fd, std::move(bytes), close});
    }
    Wake();
  }

  /// Begin shutdown: idle/mid-read connections close now; dispatched and
  /// part-written ones drain (handler finishes, response flushes, bounded
  /// by the write timeout). The loop thread exits once no connections
  /// remain. Safe from any thread.
  void BeginDrain() {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      drain_requested_ = true;
    }
    Wake();
  }

  HttpServer::ConnectionCounts counts() const {
    HttpServer::ConnectionCounts counts;
    counts.idle = n_idle_.load(std::memory_order_relaxed);
    counts.reading = n_reading_.load(std::memory_order_relaxed);
    counts.dispatched = n_dispatched_.load(std::memory_order_relaxed);
    counts.writing = n_writing_.load(std::memory_order_relaxed);
    return counts;
  }

 private:
  enum class State { kIdle, kReading, kDispatched, kWriting };

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    State state = State::kIdle;
    HttpRequestParser parser;
    std::string out;        ///< response bytes being flushed
    size_t out_off = 0;
    bool close_after_write = false;
    /// Authoritative timeout for the current state; Clock::time_point::max()
    /// while dispatched (the handler owns its own deadline).
    Clock::time_point deadline = Clock::time_point::max();
    /// Earliest wheel check currently scheduled for this connection. A
    /// deadline moving EARLIER than this needs a fresh wheel entry — the
    /// parked one would fire too late (stale later entries are harmless;
    /// they fire, see an undue deadline, and re-park).
    Clock::time_point next_check = Clock::time_point::max();
    uint32_t events = 0;    ///< epoll interest currently armed

    explicit Conn(HttpRequestParser::Limits limits) : parser(limits) {}
  };

  struct Completion {
    uint64_t conn_id = 0;
    int fd = -1;
    std::string bytes;
    bool close = false;
  };

  struct TimerEntry {
    int fd = -1;
    uint64_t id = 0;
  };

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  void Run() {
    wheel_time_ = Clock::now();
    std::vector<epoll_event> events(128);
    while (true) {
      auto now = Clock::now();
      auto until_tick = std::chrono::duration_cast<std::chrono::milliseconds>(
          wheel_time_ + kTick - now);
      int timeout_ms = static_cast<int>(
          std::min<long long>(100, std::max<long long>(0, until_tick.count())));
      int n = ::epoll_wait(epoll_fd_, events.data(),
                           static_cast<int>(events.size()), timeout_ms);
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == wake_fd_) {
          uint64_t drained;
          while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        HandleEvent(events[i].data.fd, events[i].events);
      }
      DrainInbox();
      AdvanceWheel(Clock::now());
      if (draining_ && conns_.empty()) break;
    }
  }

  void DrainInbox() {
    std::vector<int> fds;
    std::vector<Completion> completions;
    bool drain = false;
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      fds.swap(pending_fds_);
      completions.swap(completions_);
      drain = drain_requested_;
    }
    if (drain && !draining_) {
      draining_ = true;
      // Close everything with no in-flight work. Dispatched connections
      // stay for their response; part-written ones stay for their flush.
      std::vector<int> to_close;
      for (const auto& [fd, conn] : conns_) {
        if (conn->state == State::kIdle || conn->state == State::kReading) {
          to_close.push_back(fd);
        }
      }
      for (int fd : to_close) CloseConn(*conns_.at(fd));
    }
    for (int fd : fds) Register(fd);
    for (Completion& completion : completions) {
      auto it = conns_.find(completion.fd);
      if (it == conns_.end() || it->second->id != completion.conn_id) {
        continue;  // connection died while its handler ran (e.g. reaped)
      }
      Conn& conn = *it->second;
      // The completed request is history: drop it, keep pipelined bytes.
      conn.parser.Reset();
      if (QueueWrite(conn, std::move(completion.bytes), completion.close)) {
        ServeNext(conn);
      }
    }
  }

  void Register(int fd) {
    if (draining_) {
      ::close(fd);
      server_->OnConnectionClosed();
      return;
    }
    util::SetNonBlocking(fd);
    auto conn = std::make_unique<Conn>(server_->options_.limits);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->deadline = Clock::now() + IdleTimeout();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      server_->OnConnectionClosed();
      return;
    }
    conn->events = EPOLLIN;
    conn->next_check = InsertTimer(fd, conn->id, conn->deadline);
    n_idle_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(fd, std::move(conn));
  }

  std::atomic<uint64_t>& StateCounter(State state) {
    switch (state) {
      case State::kIdle: return n_idle_;
      case State::kReading: return n_reading_;
      case State::kDispatched: return n_dispatched_;
      case State::kWriting: return n_writing_;
    }
    return n_idle_;
  }

  void SetState(Conn& conn, State state) {
    if (conn.state == state) return;
    StateCounter(conn.state).fetch_sub(1, std::memory_order_relaxed);
    StateCounter(state).fetch_add(1, std::memory_order_relaxed);
    conn.state = state;
  }

  void SetInterest(Conn& conn, uint32_t mask) {
    if (conn.events == mask) return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.events = mask;
  }

  void CloseConn(Conn& conn) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    // Free the admission slot BEFORE dropping the state gauge: an observer
    // who sees the gauges hit zero must be guaranteed the acceptor won't
    // shed their very next connect on a slot that is still being released.
    server_->OnConnectionClosed();
    StateCounter(conn.state).fetch_sub(1, std::memory_order_relaxed);
    conns_.erase(conn.fd);  // destroys conn — no member access past this
  }

  /// Seconds → wheel duration; <= 0 disables the timeout (a year ≈ never,
  /// and stays far inside time_point arithmetic range unlike max()).
  static std::chrono::nanoseconds TimeoutDuration(double seconds) {
    if (seconds <= 0) return std::chrono::hours(24 * 365);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(seconds));
  }

  std::chrono::nanoseconds IdleTimeout() const {
    return TimeoutDuration(server_->options_.idle_timeout_seconds);
  }

  std::chrono::nanoseconds HeaderTimeout() const {
    double seconds = server_->options_.header_timeout_seconds > 0
                         ? server_->options_.header_timeout_seconds
                         : server_->options_.idle_timeout_seconds;
    return TimeoutDuration(seconds);
  }

  std::chrono::nanoseconds WriteTimeout() const {
    return TimeoutDuration(server_->options_.write_timeout_seconds);
  }

  void HandleEvent(int fd, uint32_t events) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& conn = *it->second;
    if ((events & (EPOLLHUP | EPOLLERR)) != 0 &&
        conn.state != State::kWriting) {
      // kWriting keeps going: EPOLLOUT|EPOLLHUP can arrive together and the
      // flush attempt itself reports the definitive error.
      CloseConn(conn);
      return;
    }
    if ((events & EPOLLOUT) != 0 && conn.state == State::kWriting) {
      if (TryFlush(conn)) ServeNext(conn);
      return;
    }
    if ((events & (EPOLLIN | EPOLLHUP)) != 0 &&
        (conn.state == State::kIdle || conn.state == State::kReading)) {
      ReadAvailable(conn);
    }
  }

  void ReadAvailable(Conn& conn) {
    char buffer[16 * 1024];
    size_t budget = kReadBudget;
    while (budget > 0) {
      long n = util::RecvSome(conn.fd, buffer,
                              std::min(budget, sizeof(buffer)));
      if (n == -2) break;  // drained the socket for now
      if (n <= 0) {        // orderly close or hard error
        CloseConn(conn);
        return;
      }
      budget -= static_cast<size_t>(n);
      if (conn.state == State::kIdle) {
        // First byte of a request starts the header clock. It is NOT
        // reset per byte — that is the whole slow-loris defence.
        SetState(conn, State::kReading);
        ArmDeadline(conn, Clock::now() + HeaderTimeout());
      }
      auto state = conn.parser.Consume(
          std::string_view(buffer, static_cast<size_t>(n)));
      if (state == HttpRequestParser::State::kDone) {
        if (Dispatch(conn)) ServeNext(conn);
        return;
      }
      if (state == HttpRequestParser::State::kError) {
        RespondParseError(conn);
        return;
      }
    }
  }

  void RespondParseError(Conn& conn) {
    HttpResponse response =
        JsonErrorResponse(conn.parser.error_status(), conn.parser.error());
    QueueWrite(conn, SerializeResponse(response, "close"), /*close=*/true);
  }

  /// Runs the parsed request's loop stage. A finished response is written
  /// at once; true when it flushed in full on a connection that stays open
  /// (the caller then serves the next buffered request). Work that waits
  /// goes to the IO pool, and the connection is quiescent until its
  /// completion comes back through the inbox.
  bool Dispatch(Conn& conn) {
    bool close = conn.parser.request().WantsClose();
    HttpServer::Staged staged;
    // The handler is application code; a stray exception must cost one 500,
    // not the loop.
    try {
      staged = server_->handler_(conn.parser.TakeRequest());
    } catch (...) {
      staged = {JsonErrorResponse(500, "internal server error"), nullptr};
    }
    if (!staged.rest) {
      conn.parser.Reset();
      return QueueWrite(conn,
                        SerializeResponse(staged.response,
                                          close ? "close" : "keep-alive"),
                        close);
    }
    SetState(conn, State::kDispatched);
    conn.deadline = Clock::time_point::max();
    SetInterest(conn, 0);  // quiescent until the response comes back
    server_->io_pool_->Submit([loop = this, conn_id = conn.id, fd = conn.fd,
                               rest = std::move(staged.rest), close]() {
      HttpResponse response;
      try {
        response = rest();
      } catch (...) {
        response = JsonErrorResponse(500, "internal server error");
      }
      loop->PostCompletion(
          conn_id, fd,
          SerializeResponse(response, close ? "close" : "keep-alive"), close);
    });
    return false;
  }

  /// After a response went out in full on a kept-alive connection: idle, or
  /// on to the requests the last read already buffered (pipelining). Those
  /// are answered in this loop, not by recursion, so a pipelined burst
  /// cannot grow the stack.
  void ServeNext(Conn& conn) {
    while (true) {
      if (conn.parser.buffered_bytes() == 0) {
        SetState(conn, State::kIdle);
        ArmDeadline(conn, Clock::now() + IdleTimeout());
        return;
      }
      SetState(conn, State::kReading);
      ArmDeadline(conn, Clock::now() + HeaderTimeout());
      auto state = conn.parser.Continue();
      if (state == HttpRequestParser::State::kNeedMore) return;
      if (state == HttpRequestParser::State::kError) {
        RespondParseError(conn);
        return;
      }
      if (!Dispatch(conn)) return;
    }
  }

  /// Starts writing `bytes`; TryFlush's result.
  bool QueueWrite(Conn& conn, std::string bytes, bool close) {
    conn.out = std::move(bytes);
    conn.out_off = 0;
    conn.close_after_write = close || draining_;
    return TryFlush(conn);
  }

  /// Writes what the socket takes. True when the response is out in full
  /// and the connection stays open (read interest re-armed); false while a
  /// flush is pending (write interest armed) or once the connection closed.
  bool TryFlush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      long n = util::SendNonBlocking(
          conn.fd, std::string_view(conn.out).substr(conn.out_off));
      if (n == -2) {
        // Send buffer full: level-triggered write interest, armed only
        // while the flush is incomplete. Progress re-arms the stall clock.
        SetState(conn, State::kWriting);
        ArmDeadline(conn, Clock::now() + WriteTimeout());
        SetInterest(conn, EPOLLOUT);
        return false;
      }
      if (n < 0) {
        CloseConn(conn);
        return false;
      }
      conn.out_off += static_cast<size_t>(n);
      if (conn.state == State::kWriting) {
        conn.deadline = Clock::now() + WriteTimeout();
      }
    }
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_write) {
      CloseConn(conn);
      return false;
    }
    SetInterest(conn, EPOLLIN);
    return true;
  }

  // -- Timer wheel ---------------------------------------------------------

  /// Schedules a check for (fd, id) and returns the check's nominal time
  /// (the deadline rounded up to a wheel slot, capped at the horizon).
  Clock::time_point InsertTimer(int fd, uint64_t id, Clock::time_point when) {
    long long ticks;
    if (when == Clock::time_point::max()) {
      ticks = static_cast<long long>(kWheelSlots) - 1;
    } else {
      auto delta = when - wheel_time_;
      ticks = delta.count() <= 0 ? 1 : (delta / kTick) + 1;
      ticks = std::min<long long>(ticks, static_cast<long long>(kWheelSlots) - 1);
      ticks = std::max<long long>(ticks, 1);
    }
    size_t slot = (wheel_pos_ + static_cast<size_t>(ticks)) % kWheelSlots;
    wheel_[slot].push_back(TimerEntry{fd, id});
    return wheel_time_ + ticks * kTick;
  }

  /// Sets the connection's deadline, scheduling an earlier wheel check when
  /// the current one would fire too late. Extensions need no new entry —
  /// the parked check fires early, sees an undue deadline, and re-parks.
  void ArmDeadline(Conn& conn, Clock::time_point deadline) {
    conn.deadline = deadline;
    if (deadline < conn.next_check) {
      conn.next_check = InsertTimer(conn.fd, conn.id, deadline);
    }
  }

  void AdvanceWheel(Clock::time_point now) {
    while (wheel_time_ + kTick <= now) {
      wheel_time_ += kTick;
      wheel_pos_ = (wheel_pos_ + 1) % kWheelSlots;
      if (wheel_[wheel_pos_].empty()) continue;
      std::vector<TimerEntry> due = std::move(wheel_[wheel_pos_]);
      wheel_[wheel_pos_].clear();
      for (const TimerEntry& entry : due) {
        auto it = conns_.find(entry.fd);
        if (it == conns_.end() || it->second->id != entry.id) continue;
        Conn& conn = *it->second;
        if (conn.deadline > now) {
          // Re-armed (activity) or disarmed (dispatched): check again later.
          conn.next_check = InsertTimer(entry.fd, entry.id, conn.deadline);
          continue;
        }
        OnTimeout(conn);
      }
    }
  }

  void OnTimeout(Conn& conn) {
    server_->connections_reaped_.fetch_add(1, std::memory_order_relaxed);
    switch (conn.state) {
      case State::kIdle:
        // Keep-alive client gone quiet past the idle bound.
        CloseConn(conn);
        return;
      case State::kReading: {
        // Slow-loris drip: best-effort 408, then the connection is done.
        // The conn re-enters the wheel via the write deadline, so a peer
        // that also refuses to READ the 408 is reaped by the write timeout.
        HttpResponse response =
            JsonErrorResponse(408, "timed out waiting for the request");
        QueueWrite(conn, SerializeResponse(response, "close"), /*close=*/true);
        return;
      }
      case State::kWriting:
        // Stalled reader with a half-flushed response: abandon it; the
        // connection slot is worth more than the peer's backlog.
        CloseConn(conn);
        return;
      case State::kDispatched:
        // Unreachable: dispatched deadlines are max(). Be safe anyway.
        return;
    }
  }

  HttpServer* server_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;

  // Loop-thread-only state.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  bool draining_ = false;
  std::vector<std::vector<TimerEntry>> wheel_{kWheelSlots};
  size_t wheel_pos_ = 0;
  Clock::time_point wheel_time_{};

  // Cross-thread inbox.
  std::mutex inbox_mutex_;
  std::vector<int> pending_fds_;         // guarded by inbox_mutex_
  std::vector<Completion> completions_;  // guarded by inbox_mutex_
  bool drain_requested_ = false;         // guarded by inbox_mutex_

  // Gauges, sampled by any thread.
  std::atomic<uint64_t> n_idle_{0};
  std::atomic<uint64_t> n_reading_{0};
  std::atomic<uint64_t> n_dispatched_{0};
  std::atomic<uint64_t> n_writing_{0};
};

}  // namespace internal

HttpServer::HttpServer(Options options, StagedHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  HTD_CHECK(handler_ != nullptr);
}

namespace {

/// The stage of a blocking handler: defer everything to the IO pool.
HttpServer::StagedHandler DeferAll(HttpServer::Handler handler) {
  HTD_CHECK(handler != nullptr);
  return [handler = std::move(handler)](HttpRequest request) {
    return HttpServer::Staged{{}, [handler, request = std::move(request)] {
                                return handler(request);
                              }};
  };
}

}  // namespace

HttpServer::HttpServer(Options options, Handler handler)
    : HttpServer(std::move(options), DeferAll(std::move(handler))) {}

HttpServer::~HttpServer() { Stop(); }

util::Status HttpServer::Start() {
  if (running()) return util::Status::FailedPrecondition("server already running");
  auto listener = util::ListenTcp(options_.host, options_.port,
                                  std::max(1, options_.backlog));
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = util::LocalPort(listener_.fd());
  io_pool_ = std::make_unique<util::ThreadPool>(std::max(1, options_.io_threads));
  loops_.clear();
  for (int i = 0; i < std::max(1, options_.loop_threads); ++i) {
    auto loop = std::make_unique<internal::EventLoop>(this);
    if (auto status = loop->Init(); !status.ok()) {
      loops_.clear();
      io_pool_.reset();
      listener_.Close();
      return status;
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) loop->StartThread();
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // The acceptor polls with a 100 ms timeout, so it observes running_ ==
  // false within one tick; only then is the listener closed (closing first
  // would race the acceptor's use of the fd).
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // Drain the loop ring: idle connections close now; in-flight handlers
  // finish and their responses FLUSH (bounded by the write timeout) before
  // the loops exit — a cancelled sync solve still delivers its 200.
  for (auto& loop : loops_) loop->BeginDrain();
  for (auto& loop : loops_) loop->Join();
  // Handler tasks all posted their completions before the loops emptied;
  // WaitIdle reaps the tail of any task still returning.
  io_pool_->WaitIdle();
  io_pool_.reset();
  loops_.clear();
}

HttpServer::ConnectionCounts HttpServer::connection_counts() const {
  ConnectionCounts total;
  for (const auto& loop : loops_) {
    ConnectionCounts counts = loop->counts();
    total.idle += counts.idle;
    total.reading += counts.reading;
    total.dispatched += counts.dispatched;
    total.writing += counts.writing;
  }
  return total;
}

void HttpServer::OnConnectionClosed() {
  live_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void HttpServer::AcceptLoop() {
  size_t next_loop = 0;
  while (running()) {
    util::AcceptOutcome outcome =
        util::AcceptPolled(listener_.fd(), /*timeout_ms=*/100);
    if (outcome.soft_failure) {
      // Accept failed with the connection still queued (EMFILE under fd
      // exhaustion is the classic): a bare retry would spin at 100% CPU on
      // the still-readable listener. Back off, count it, try again — the
      // connection is served as soon as an fd frees up.
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      timespec backoff{0, 10 * 1000 * 1000};  // 10 ms
      ::nanosleep(&backoff, nullptr);
      continue;
    }
    if (!outcome.socket.valid()) continue;  // poll tick: re-check running()
    // Transport-level shedding: beyond max_connections the connection is
    // refused right here. The bound is the ONLY connection limit — the
    // loops hold sockets, not threads, so io_threads no longer caps
    // admission.
    if (live_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse response =
          RetryLaterResponse(503, "server at connection capacity; retry later");
      util::SetSendTimeout(outcome.socket.fd(), 1.0);
      util::SendAll(outcome.socket.fd(), SerializeResponse(response, "close"));
      continue;  // socket destructor closes it
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    live_connections_.fetch_add(1, std::memory_order_relaxed);
    loops_[next_loop]->AddConnection(outcome.socket.Release());
    next_loop = (next_loop + 1) % loops_.size();
  }
}

}  // namespace htd::net
