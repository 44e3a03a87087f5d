// Tests for the raw thread pool (task submission layer) and the
// build-once Memo. Data-parallel helper coverage lives in exec_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/memo.hpp"
#include "util/thread_pool.hpp"

namespace cgc::util {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, StressManySmallTasksFromManyThreads) {
  // Hammer the queue from several producer threads at once; every task
  // must run exactly once and every future must resolve.
  ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 250;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      std::vector<std::future<void>> futures;
      futures.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        futures.push_back(pool.submit([&counter] { ++counter; }));
      }
      for (auto& f : futures) {
        f.get();
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(counter.load(), kProducers * kPerProducer);
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlockWhenCallerDoesNotBlock) {
  // A pooled task may submit follow-up work to the same pool as long as
  // it does not block on it; the follow-ups drain after it returns.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::mutex inner_mutex;
  std::vector<std::future<void>> inner;
  std::vector<std::future<void>> outer;
  for (int i = 0; i < 16; ++i) {
    outer.push_back(pool.submit([&] {
      auto f = pool.submit([&count] { ++count; });
      std::lock_guard lock(inner_mutex);
      inner.push_back(std::move(f));
    }));
  }
  for (auto& f : outer) {
    f.get();
  }
  for (auto& f : inner) {
    f.get();
  }
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ExceptionDoesNotKillWorkers) {
  ThreadPool pool(2);
  auto bad = pool.submit([] { throw Error("first"); });
  EXPECT_THROW(bad.get(), Error);
  // The pool must still execute subsequent work.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(Memo, ConcurrentFirstUseBuildsOnce) {
  Memo<int> memo;
  std::atomic<int> builds{0};
  std::atomic<int> arrived{0};
  constexpr int kCallers = 8;
  std::vector<const int*> seen(kCallers, nullptr);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      ++arrived;
      while (arrived.load() < kCallers) {
        std::this_thread::yield();
      }
      seen[static_cast<std::size_t>(i)] = &memo.get("key", [&builds] {
        ++builds;
        // Long enough for every other caller to arrive mid-build.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 42;
      });
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(builds.load(), 1);
  for (const int* value : seen) {
    ASSERT_EQ(value, seen[0]);
  }
  EXPECT_EQ(*seen[0], 42);
}

TEST(Memo, DifferentKeysBuildAtTheSameTime) {
  // Each build waits for the other to start. A memo that held one lock
  // across every build would start only one: it would wait out the
  // deadline and return 1.
  Memo<int> memo;
  std::atomic<int> started{0};
  const auto build = [&started] {
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return started.load();
  };
  int a = 0;
  int b = 0;
  std::thread first([&] { a = memo.get("a", build); });
  std::thread second([&] { b = memo.get("b", build); });
  first.join();
  second.join();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
}

TEST(Memo, FailedBuildIsRetried) {
  Memo<int> memo;
  EXPECT_THROW(memo.get("key", []() -> int { throw Error("build failed"); }),
               Error);
  EXPECT_EQ(memo.get("key", [] { return 7; }), 7);
  EXPECT_EQ(memo.get("key", [] { return 8; }), 7);
}

}  // namespace
}  // namespace cgc::util
