#include "common/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

namespace psi {

namespace {

// True while the current thread is executing a pool job: nested ParallelFor
// calls run serially instead of deadlocking on the shared workers.
thread_local bool t_inside_pool_job = false;

// Set in a child process forked after any pool started. Only the forking
// thread survives fork(), so the parent's workers never pick up a job there
// and every pool runs its loops serially instead of waiting forever.
std::atomic<bool> g_forked_child{false};

void MarkForkedChild() { g_forked_child.store(true, std::memory_order_relaxed); }

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("PSI_THREADS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return std::min<unsigned long>(v, 64);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  static const int registered = pthread_atfork(nullptr, nullptr, &MarkForkedChild);
  (void)registered;
  StartWorkers(std::max<size_t>(num_threads, 1));
}

ThreadPool::~ThreadPool() { StopWorkers(); }

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

void ThreadPool::StartWorkers(size_t num_threads) {
  num_threads_ = num_threads;
  shutdown_ = false;
  pending_ = 0;
  // New workers must treat the CURRENT epoch as already seen: after a
  // SetNumThreads resize the counter carries over from the previous pool
  // generation, and a worker starting at epoch 0 would re-run the stale
  // job_ (whose fn points into a dead caller frame). Captured here, on the
  // starting thread, so a job published right after StartWorkers returns
  // can never be missed.
  uint64_t epoch = job_epoch_;
  workers_.reserve(num_threads_ - 1);
  for (size_t w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w, epoch] { WorkerLoop(w, epoch); });
  }
}

void ThreadPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_ready_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

void ThreadPool::SetNumThreads(size_t num_threads) {
  StopWorkers();
  StartWorkers(std::max<size_t>(num_threads, 1));
}

void ThreadPool::RunSlice(const Job& job, size_t w) {
  // Static chunking: worker w always owns the w-th contiguous slice.
  size_t begin = w * job.n / job.num_workers;
  size_t end = (w + 1) * job.n / job.num_workers;
  t_inside_pool_job = true;
  try {
    for (size_t i = begin; i < end; ++i) (*job.fn)(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  t_inside_pool_job = false;
}

void ThreadPool::WorkerLoop(size_t worker_index, uint64_t seen_epoch) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ready_.wait(lock, [&] {
        return shutdown_ || job_epoch_ != seen_epoch;
      });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    RunSlice(job, worker_index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) job_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1 || t_inside_pool_job ||
      g_forked_child.load(std::memory_order_relaxed)) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One job slot: a second external caller waits here until the first
  // caller's job has fully drained, instead of overwriting job_ mid-run.
  std::lock_guard<std::mutex> submit(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_.fn = &fn;
    job_.n = n;
    job_.num_workers = num_threads_;
    pending_ = num_threads_ - 1;
    ++job_epoch_;
  }
  job_ready_.notify_all();
  RunSlice(job_, 0);  // The calling thread is worker 0.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    job_done_.wait(lock, [&] { return pending_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

size_t ThreadPool::NumChunks(size_t n) { return std::min(n, kMaxChunks); }

void ThreadPool::ParallelForChunked(
    size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn) {
  size_t chunks = NumChunks(n);
  if (chunks == 0) return;
  ParallelFor(chunks, [&](size_t c) {
    fn(c, c * n / chunks, (c + 1) * n / chunks);
  });
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ThreadPool::Global().ParallelFor(n, fn);
}

Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn) {
  // OK statuses never allocate, so the per-index slot vector is cheap.
  std::vector<Status> statuses(n);
  ThreadPool::Global().ParallelFor(n,
                                   [&](size_t i) { statuses[i] = fn(i); });
  for (auto& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

void ParallelForChunked(
    size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn) {
  ThreadPool::Global().ParallelForChunked(n, fn);
}

}  // namespace psi
