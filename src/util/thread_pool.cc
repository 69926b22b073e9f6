#include "util/thread_pool.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace htd::util {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  HTD_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    HTD_CHECK(!shutting_down_) << "Submit after shutdown";
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      // A throwing task must not take the worker down; report and go on.
      std::fputs("thread_pool: a task threw; worker continues\n", stderr);
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace htd::util
