// Persistent worker pool (Core Guidelines CP.41: minimize thread
// creation/destruction; CP.42: never wait without a condition).
//
// The pool is the shared-memory stand-in for the GPU in the original
// system: collocation batches are sharded across workers and gradients are
// reduced deterministically (see data-parallel trainer in core/).
//
// All queue and lifecycle state is guarded by a single annotated mutex
// (clang -Wthread-safety proves the locking discipline; TSan checks the
// dynamic behavior in CI). Task bodies themselves run unlocked.
//
// A pool of size P is the calling thread plus P - 1 workers, so P threads
// share P CPUs. Each worker is placed once, as it starts, on an allowed
// CPU other than its creator's (place_thread_once) and is never pinned.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.hpp"

namespace qpinn {

/// [begin, end) of chunk `c` when [0, n) is cut into `chunks` contiguous
/// chunks, the first n % chunks of them one element longer — the
/// partition ThreadPool::for_each_chunk runs.
inline std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                       std::size_t chunks,
                                                       std::size_t c) {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t begin = c * base + std::min(c, extra);
  return {begin, begin + base + (c < extra ? 1 : 0)};
}

class ThreadPool {
 public:
  /// The calling thread plus `num_threads - 1` (>= 0) workers; worker i
  /// is placed once, i + 1 allowed CPUs after its creator's. Workers start
  /// on the creator's CPU, so the constructor yields once to let them move.
  explicit ThreadPool(std::size_t num_threads);

  /// Drains the queue: already-submitted tasks still run; workers exit
  /// once the queue is empty.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a dispatched call's chunks: the caller and the
  /// workers.
  std::size_t size() const { return workers_.size() + 1; }

  /// Enqueues a task; the future resolves when it completes (exceptions are
  /// transported through the future). A pool of size 1 has no worker: the
  /// task runs inline and the returned future is ready.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n), blocking until all complete. Work is
  /// divided into contiguous chunks, at most `size()` of them. Exceptions
  /// from any chunk are rethrown (first one wins).
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs fn(chunk_index, begin, end) over a static partition of [0, n)
  /// into exactly min(size(), n) chunks (see chunk_range). Useful when
  /// per-chunk scratch state is needed (e.g. per-shard gradients).
  ///
  /// The partition never depends on where the call is made, so neither do
  /// results that combine per-chunk partials in chunk order. Chunks 1.. go
  /// to the workers and chunk 0 runs on the calling thread, except that
  /// every chunk runs inline, in chunk order, on the calling thread (no
  /// task submitted, no future waited on) when
  ///  - there is one chunk,
  ///  - `dispatch` is false (dispatch_pays judged the work too small), or
  ///  - the call is nested: made from inside a chunk of this pool, i.e. on
  ///    one of its workers or in the calling thread's own chunk 0.
  /// One level of parallelism owns the pool: a kernel called inside a
  /// trainer shard task runs its chunks serially, and a nested call can
  /// never wait on workers that are busy running its own callers.
  /// The first exception thrown by a chunk is rethrown; a dispatched call
  /// still waits for every chunk, an inline one stops at the throwing
  /// chunk.
  void for_each_chunk(
      std::size_t n,
      const std::function<void(std::size_t chunk, std::size_t begin,
                               std::size_t end)>& fn,
      bool dispatch = true);

  /// True when no submitted task is queued or executing. Point-in-time
  /// answer: another thread may submit immediately afterwards.
  bool idle() const;

  /// Lifetime count of tasks handed to workers via submit(). Work run
  /// inline on the calling thread (chunk 0 of for_each_chunk, every chunk
  /// of a nested or non-dispatching call) is NOT counted — the counter
  /// measures dispatch, which parallel/parallel_for.hpp's policy decides.
  std::uint64_t tasks_submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }

 private:
  /// Task plus its completion channel. A plain promise (not packaged_task)
  /// so the worker can decrement inflight_ BEFORE fulfilling the future:
  /// a caller that saw future.get() return is then guaranteed to observe
  /// idle() == true, which the set_global_threads() contract relies on.
  struct Entry {
    std::function<void()> fn;
    std::shared_ptr<std::promise<void>> done;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<Entry> queue_ QPINN_GUARDED_BY(mutex_);
  bool stopping_ QPINN_GUARDED_BY(mutex_) = false;
  /// Tasks submitted but not yet finished (queued + executing).
  std::size_t inflight_ QPINN_GUARDED_BY(mutex_) = 0;
  /// Lifetime dispatch counter; see tasks_submitted().
  std::atomic<std::uint64_t> submitted_{0};
};

/// Process-wide pool used by tensor kernels and the trainer.
/// The first call creates it with `default_num_threads()` workers.
///
/// Lifecycle contract: the returned reference stays valid until the next
/// set_global_threads() call. Callers must not hold it across a resize.
ThreadPool& global_pool();

/// Resizes the global pool (joins old workers, spawns new ones).
///
/// Contract (enforced): the current pool must be idle — no submitted task
/// queued or executing — when the resize happens; a busy pool raises
/// ConfigError instead of destroying workers under in-flight work. Callers
/// must additionally guarantee that no other thread calls into the pool
/// concurrently with the resize (the check cannot see a reference another
/// thread is *about to* use), which is the documented single-threaded
/// configuration phase of a training run.
void set_global_threads(std::size_t num_threads);

/// QPINN_THREADS env override, otherwise hardware_concurrency (>= 1).
std::size_t default_num_threads();

/// One-time scheduler hint: moves the calling thread to allowed CPU
/// `slot` (mod the allowed count), then at once restores its full mask, so
/// it starts there and stays free to migrate; never a pin. Skipped when
/// fewer than two CPUs are allowed or a call fails.
void place_thread_once(std::size_t slot);

}  // namespace qpinn
