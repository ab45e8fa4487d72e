#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn {

namespace {
/// The pool whose chunk this thread is running: set for a worker's whole
/// life and around the calling thread's chunk 0 (see for_each_chunk).
thread_local const ThreadPool* t_chunk_pool = nullptr;

#ifdef __linux__
/// The calling thread's allowed CPUs, in order; empty if unreadable.
std::vector<int> allowed_cpus(cpu_set_t& mask) {
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Position of the calling thread's CPU among its allowed CPUs (0 if
/// unknown).
std::size_t current_cpu_slot() {
  cpu_set_t mask;
  const std::vector<int> cpus = allowed_cpus(mask);
  const auto it = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  return it == cpus.end() ? 0 : static_cast<std::size_t>(it - cpus.begin());
}
#else
std::size_t current_cpu_slot() { return 0; }
#endif
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  QPINN_CHECK(num_threads >= 1, "thread pool needs at least one thread");
  const std::size_t creator = current_cpu_slot();
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, slot = creator + i] {
      place_thread_once(slot);
      worker_loop();
    });
  }
  // New threads start on this CPU; yielding lets each run and move itself
  // now, not when this thread's time slice ends.
  std::this_thread::yield();
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  t_chunk_pool = this;
  for (;;) {
    Entry entry;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (stopping_ && queue_.empty()) return;
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      entry.fn();
    } catch (...) {
      error = std::current_exception();
    }
    {
      // Decrement before fulfilling the future: once a waiter unblocks,
      // idle() already reflects this task as finished.
      MutexLock lock(mutex_);
      --inflight_;
    }
    if (error) {
      entry.done->set_exception(error);
    } else {
      entry.done->set_value();
    }
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    std::packaged_task<void()> inline_task(std::move(task));
    inline_task();
    return inline_task.get_future();
  }
  Entry entry{std::move(task), std::make_shared<std::promise<void>>()};
  std::future<void> future = entry.done->get_future();
  {
    MutexLock lock(mutex_);
    QPINN_CHECK(!stopping_, "submit() on a stopping thread pool");
    queue_.push_back(std::move(entry));
    ++inflight_;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_one();
  return future;
}

bool ThreadPool::idle() const {
  MutexLock lock(mutex_);
  return inflight_ == 0;
}

void ThreadPool::for_each_chunk(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    bool dispatch) {
  if (n == 0) return;
  const std::size_t chunks = std::min(size(), n);
  if (chunks == 1 || !dispatch || t_chunk_pool == this) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = chunk_range(n, chunks, c);
      fn(c, begin, end);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    const auto range = chunk_range(n, chunks, c);
    futures.push_back(
        submit([&fn, c, range] { fn(c, range.first, range.second); }));
  }
  std::exception_ptr error;
  // Chunk 0 runs on the calling thread, marked as inside this pool so a
  // call it makes back into the pool runs inline (see the header).
  const ThreadPool* const outer = std::exchange(t_chunk_pool, this);
  try {
    const auto [begin, end] = chunk_range(n, chunks, 0);
    fn(0, begin, end);
  } catch (...) {
    error = std::current_exception();
  }
  t_chunk_pool = outer;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::for_each_index(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  for_each_chunk(n, [&fn](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

namespace {
Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool QPINN_GUARDED_BY(g_pool_mutex);
}  // namespace

std::size_t default_num_threads() {
  const long long from_env = env_int("QPINN_THREADS", 0);
  if (from_env > 0) return static_cast<std::size_t>(from_env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& global_pool() {
  MutexLock lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_num_threads());
  return *g_pool;
}

void set_global_threads(std::size_t num_threads) {
  QPINN_CHECK(num_threads >= 1, "set_global_threads needs >= 1 thread");
  // Build the replacement before taking the lock so a throwing constructor
  // leaves the old pool in place.
  auto next = std::make_unique<ThreadPool>(num_threads);
  std::unique_ptr<ThreadPool> retired;
  {
    MutexLock lock(g_pool_mutex);
    if (g_pool && !g_pool->idle()) {
      throw ConfigError(
          "set_global_threads() while the global pool has in-flight work; "
          "resize the pool only from the single-threaded configuration "
          "phase (see thread_pool.hpp contract)");
    }
    retired = std::exchange(g_pool, std::move(next));
  }
  // Old workers join outside the lock (they cannot be running pool work:
  // the idle() check above saw an empty queue and stopping_ drains it).
  retired.reset();
}

#ifdef __linux__
void place_thread_once(std::size_t slot) {
  cpu_set_t mask;
  const std::vector<int> cpus = allowed_cpus(mask);
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot % cpus.size()], &one);
  // A mask without the current CPU migrates the thread before the call
  // returns; restoring the full mask leaves it there, unpinned.
  if (sched_setaffinity(0, sizeof one, &one) == 0) {
    sched_setaffinity(0, sizeof mask, &mask);
  }
}
#else
void place_thread_once(std::size_t) {}
#endif

}  // namespace qpinn
