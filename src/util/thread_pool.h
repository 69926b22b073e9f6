// Fixed-size thread pool that runs the HTTP server's request handlers
// (src/net/server.*): the epoll loops own the connections, and each parsed
// request is submitted here because a handler may block for the length of
// a synchronous solve. All compute — the parallel separator search and the
// service-layer batch scheduler — runs on the fleet-wide work-stealing
// executor instead (util/executor.h). Tasks are plain
// std::function<void()>; coordination (result hand-off) is owned by the
// caller.
//
// A task that throws does not take down its worker: the worker reports it on
// stderr and moves on. The server's dispatch lambda already turns handler
// exceptions into a 500, so no request is lost to it.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace htd::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void WaitIdle();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  int active_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace htd::util
