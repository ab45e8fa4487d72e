#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn {

namespace {
/// The pool whose chunk this thread is running: set for a worker's whole
/// life and around the calling thread's chunk 0 (see for_each_chunk).
thread_local const ThreadPool* t_chunk_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  QPINN_CHECK(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
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
  QPINN_CHECK(num_threads >= 1, "set_global_threads needs >= 1 worker");
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

}  // namespace qpinn
