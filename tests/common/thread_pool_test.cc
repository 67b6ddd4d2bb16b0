#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace psi {
namespace {

// The global pool is shared process state; every test restores the default
// size so ordering between test cases does not matter.
class ThreadPoolTest : public ::testing::Test {
 protected:
  ~ThreadPoolTest() override { ThreadPool::Global().SetNumThreads(1); }
};

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool::Global().SetNumThreads(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST_F(ThreadPoolTest, ZeroAndOneIndexEdges) {
  ThreadPool::Global().SetNumThreads(4);
  size_t calls = 0;
  ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // n == 1 degrades to a plain call on the calling thread (no atomics
  // needed to observe it).
  ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST_F(ThreadPoolTest, ResultsMatchSerialForAnyThreadCount) {
  constexpr size_t kN = 513;  // Deliberately not a multiple of any pool size.
  std::vector<uint64_t> serial(kN);
  ThreadPool::Global().SetNumThreads(1);
  ParallelFor(kN, [&](size_t i) { serial[i] = i * i + 7; });
  for (size_t threads : {2u, 3u, 8u}) {
    ThreadPool::Global().SetNumThreads(threads);
    std::vector<uint64_t> parallel(kN);
    ParallelFor(kN, [&](size_t i) { parallel[i] = i * i + 7; });
    EXPECT_EQ(parallel, serial) << "threads " << threads;
  }
}

TEST_F(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool::Global().SetNumThreads(threads);
    EXPECT_THROW(
        ParallelFor(64,
                    [&](size_t i) {
                      if (i == 13) throw std::runtime_error("boom");
                    }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST_F(ThreadPoolTest, ExceptionDoesNotPoisonPool) {
  ThreadPool::Global().SetNumThreads(4);
  EXPECT_THROW(ParallelFor(8, [](size_t) { throw std::logic_error("x"); }),
               std::logic_error);
  // The pool keeps working after an exceptional job.
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, NestedCallsDegradeToSerial) {
  ThreadPool::Global().SetNumThreads(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  ParallelFor(16, [&](size_t outer) {
    // Inner loop must run inline on the worker, not deadlock on the pool.
    ParallelFor(16, [&](size_t inner) { hits[outer * 16 + inner].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, ChunkCountDependsOnlyOnN) {
  EXPECT_EQ(ThreadPool::NumChunks(0), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(1), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(7), 7u);
  EXPECT_EQ(ThreadPool::NumChunks(ThreadPool::kMaxChunks), ThreadPool::kMaxChunks);
  EXPECT_EQ(ThreadPool::NumChunks(100000), ThreadPool::kMaxChunks);
  // Chunked slices tile [0, n) in order with identical boundaries for every
  // pool size — the invariant floating-point reductions rely on.
  constexpr size_t kN = 1000;
  std::vector<std::pair<size_t, size_t>> bounds_serial;
  ThreadPool::Global().SetNumThreads(1);
  {
    std::mutex mu;
    ParallelForChunked(kN, [&](size_t chunk, size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      bounds_serial.resize(std::max(bounds_serial.size(), chunk + 1));
      bounds_serial[chunk] = {begin, end};
    });
  }
  ThreadPool::Global().SetNumThreads(8);
  std::vector<std::pair<size_t, size_t>> bounds_parallel;
  {
    std::mutex mu;
    ParallelForChunked(kN, [&](size_t chunk, size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      bounds_parallel.resize(std::max(bounds_parallel.size(), chunk + 1));
      bounds_parallel[chunk] = {begin, end};
    });
  }
  EXPECT_EQ(bounds_parallel, bounds_serial);
  ASSERT_EQ(bounds_serial.size(), ThreadPool::NumChunks(kN));
  size_t expect_begin = 0;
  for (const auto& [begin, end] : bounds_serial) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LE(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, kN);
}

TEST_F(ThreadPoolTest, ParallelForStatusReportsLowestFailingIndex) {
  for (size_t threads : {1u, 8u}) {
    ThreadPool::Global().SetNumThreads(threads);
    Status s = ParallelForStatus(100, [](size_t i) -> Status {
      if (i == 30) return Status::InvalidArgument("first");
      if (i == 70) return Status::InvalidArgument("second");
      return Status::OK();
    });
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("first"), std::string::npos)
        << "threads " << threads << ": " << s.message();
  }
}

TEST_F(ThreadPoolTest, ParallelForStatusOkWhenAllSucceed) {
  ThreadPool::Global().SetNumThreads(4);
  std::vector<std::atomic<int>> hits(50);
  Status s = ParallelForStatus(50, [&](size_t i) -> Status {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, SetNumThreadsClampsToAtLeastOne) {
  ThreadPool::Global().SetNumThreads(0);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1u);
  size_t calls = 0;
  ParallelFor(5, [&](size_t) { ++calls; });  // Serial => plain counter is fine.
  EXPECT_EQ(calls, 5u);
}

TEST_F(ThreadPoolTest, ConcurrentExternalCallersEachRunEveryIndexOnce) {
  // Two threads submit to one 4-thread pool at the same time, the way two
  // sessions in one process do. Each caller's job must run in full: a
  // second submission may never overwrite a job that is still running.
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  constexpr int kIterations = 300;
  std::atomic<int> started{0};
  auto caller = [&](std::atomic<size_t>* wrong) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    for (int iter = 0; iter < kIterations; ++iter) {
      std::vector<std::atomic<int>> hits(kN);
      pool.ParallelFor(kN, [&](size_t i) {
        hits[i].fetch_add(1);
        std::this_thread::yield();  // Let the other caller in mid-job.
      });
      for (const auto& h : hits) {
        if (h.load() != 1) wrong->fetch_add(1);
      }
    }
  };
  std::atomic<size_t> wrong_a{0}, wrong_b{0};
  std::thread a(caller, &wrong_a);
  std::thread b(caller, &wrong_b);
  a.join();
  b.join();
  EXPECT_EQ(wrong_a.load(), 0u) << "indices not run exactly once (caller A)";
  EXPECT_EQ(wrong_b.load(), 0u) << "indices not run exactly once (caller B)";
}

TEST_F(ThreadPoolTest, ForkedChildRunsLoopsSerially) {
  // Only the forking thread survives fork(), so a child that submits pool
  // work must run it itself instead of waiting on workers that do not exist
  // there (a forked test daemon serving a pooled stage used to hang).
  ThreadPool::Global().SetNumThreads(4);
  ParallelFor(8, [](size_t) {});  // The workers are up and idle.
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    alarm(10);  // A hang ends the child by SIGALRM instead of stalling ctest.
    std::vector<uint64_t> out(1000);
    ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i] != i * i) _exit(1);
    }
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child hung or crashed";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace psi
