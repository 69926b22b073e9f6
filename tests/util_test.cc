// Tests for rng, stats, cancel token, thread pool, timer and socket options.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace htd::util {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(1);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SampleDistinctIsSortedAndDistinct) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleDistinct(10, 30, 7);
    ASSERT_EQ(sample.size(), 7u);
    for (size_t i = 0; i < sample.size(); ++i) {
      EXPECT_GE(sample[i], 10);
      EXPECT_LE(sample[i], 30);
      if (i > 0) {
        EXPECT_LT(sample[i - 1], sample[i]);
      }
    }
  }
}

TEST(RngTest, SampleDistinctFullUniverse) {
  Rng rng(13);
  auto sample = rng.SampleDistinct(0, 4, 5);
  EXPECT_EQ(sample, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ForkDiverges) {
  Rng rng(5);
  Rng child = rng.Fork();
  EXPECT_NE(rng.Next64(), child.Next64());
}

TEST(StatsTest, EmptyStats) {
  RunningStats stats;
  EXPECT_EQ(stats.Count(), 0);
  EXPECT_EQ(stats.Mean(), 0.0);
  EXPECT_EQ(stats.Max(), 0.0);
  EXPECT_EQ(stats.StdDev(), 0.0);
}

TEST(StatsTest, MeanMaxStdDev) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.Count(), 8);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_NEAR(stats.StdDev(), 2.0, 1e-9);  // classic textbook data set
}

TEST(StatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(3.5);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.Max(), 3.5);
  EXPECT_DOUBLE_EQ(stats.StdDev(), 0.0);
}

TEST(CancelTest, ManualStop) {
  CancelToken token;
  EXPECT_FALSE(token.ShouldStop());
  token.RequestStop();
  EXPECT_TRUE(token.ShouldStop());
}

TEST(CancelTest, DeadlineInThePast) {
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(token.ShouldStop());
}

TEST(CancelTest, DeadlineInTheFuture) {
  CancelToken token;
  token.SetTimeout(std::chrono::duration<double>(60.0));
  EXPECT_FALSE(token.ShouldStop());
}

TEST(CancelTest, StopFromAnotherThread) {
  CancelToken token;
  std::thread stopper([&] { token.RequestStop(); });
  stopper.join();
  EXPECT_TRUE(token.ShouldStop());
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, TasksCanSubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    for (int i = 0; i < 5; ++i) pool.Submit([&] { counter.fetch_add(1); });
  });
  // Wait until nested submissions settle.
  for (int i = 0; i < 100 && counter.load() < 5; ++i) pool.WaitIdle();
  EXPECT_EQ(counter.load(), 5);
}

TEST(ThreadPoolTest, TaskExceptionsAreRecordedNotFatal) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.Submit([] { throw std::runtime_error("first failure"); });
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Submit([] { throw std::runtime_error("second failure"); });
  pool.WaitIdle();
  // Workers survived the throws and kept executing tasks.
  EXPECT_EQ(counter.load(), 1);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 0.015);
}

TEST(SocketTest, RecvTimeoutZeroClearsAnEarlierTimeout) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(sock.valid());
  auto read_back = [&] {
    timeval tv{};
    socklen_t len = sizeof(tv);
    EXPECT_EQ(::getsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, &len), 0);
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  SetRecvTimeout(sock.fd(), 2.5);
  EXPECT_NEAR(read_back(), 2.5, 0.01);
  // A reused socket asked for "no timeout" must block indefinitely again,
  // not keep the earlier bound.
  SetRecvTimeout(sock.fd(), 0);
  EXPECT_EQ(read_back(), 0.0);
}

}  // namespace
}  // namespace htd::util
