#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "core/benchmarks.hpp"
#include "core/trainer.hpp"
#include "dist/communicator.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qpinn {
namespace {

#ifdef __linux__
/// Threads of this process right now.
std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// The calling thread's affinity mask.
cpu_set_t own_mask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  return mask;
}
#endif

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, TransportsExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw ValueError("boom"); });
  EXPECT_THROW(future.get(), ValueError);
}

TEST(ThreadPool, ForEachChunkCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each_chunk(1000, [&](std::size_t, std::size_t begin,
                                std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachChunkPropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(
                   100,
                   [](std::size_t chunk, std::size_t, std::size_t) {
                     if (chunk == 1) throw NumericsError("chunk failed");
                   }),
               NumericsError);
}

TEST(ThreadPool, ForEachChunkPropagatesCallerChunkException) {
  // Chunk 0 runs on the calling thread, so its exception takes a different
  // path (direct catch) than worker exceptions (future transport).
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(
                   100,
                   [](std::size_t chunk, std::size_t, std::size_t) {
                     if (chunk == 0) throw ValueError("caller chunk failed");
                   }),
               ValueError);
}

TEST(ThreadPool, ForEachChunkAllChunksThrowingReportsOneAndRecovers) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(
                   100,
                   [](std::size_t, std::size_t, std::size_t) {
                     throw NumericsError("every chunk fails");
                   }),
               NumericsError);
  // Every future was still drained: the pool is reusable and idle.
  EXPECT_TRUE(pool.idle());
  std::atomic<int> counter{0};
  pool.for_each_index(50, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TeardownDrainsQueuedWork) {
  std::atomic<int> completed{0};
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  {
    ThreadPool pool(2);
    // First task blocks the single worker; the rest pile up in the queue.
    auto blocker = pool.submit([opened] { opened.wait(); });
    for (int i = 0; i < 32; ++i) {
      pool.submit([&completed] { ++completed; });
    }
    EXPECT_EQ(completed.load(), 0);
    gate.set_value();
    blocker.get();
    // Destructor must drain all 32 queued tasks, not drop them.
  }
  EXPECT_EQ(completed.load(), 32);
}

// A pool of P is the caller plus P - 1 workers; a pool of 1 has none and
// runs submitted tasks inline.
TEST(ThreadPool, StartsOneWorkerFewerThanItsSize) {
#ifdef __linux__
  for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
    const std::size_t before = process_threads();
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
    EXPECT_EQ(process_threads() - before, size - 1) << "size " << size;
  }
#endif
  ThreadPool pool(1);
  std::thread::id ran_on;
  auto future = pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  auto failed = pool.submit([] { throw ValueError("inline boom"); });
  EXPECT_THROW(failed.get(), ValueError);
  EXPECT_TRUE(pool.idle());
  EXPECT_EQ(pool.tasks_submitted(), 0u);
}

// Every chunk waits for all four, so each runs on its own thread: chunk 0
// on the caller, chunks 1..3 on the three workers.
TEST(ThreadPool, DispatchedChunksRunOnTheCallerAndEachWorker) {
  ThreadPool pool(4);
  std::vector<std::thread::id> ids(4);
  std::latch all_running(4);
  pool.for_each_chunk(4, [&](std::size_t c, std::size_t, std::size_t) {
    ids[c] = std::this_thread::get_id();
    all_running.arrive_and_wait();
  });
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  for (std::size_t a = 1; a < 4; ++a) {
    EXPECT_NE(ids[a], ids[0]);
    for (std::size_t b = a + 1; b < 4; ++b) EXPECT_NE(ids[a], ids[b]);
  }
}

#ifdef __linux__
// Placement is a one-time hint: every worker runs with its creator's full
// mask afterwards, not pinned to the CPU it was moved to.
TEST(ThreadPool, WorkersKeepTheCreatorsAffinityMask) {
  const cpu_set_t creator = own_mask();
  ThreadPool pool(4);
  std::vector<cpu_set_t> masks(4);
  std::latch all_running(4);
  pool.for_each_chunk(4, [&](std::size_t c, std::size_t, std::size_t) {
    masks[c] = own_mask();
    all_running.arrive_and_wait();
  });
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_TRUE(CPU_EQUAL(&masks[c], &creator)) << "worker " << c;
  }
}

// A dist rank places its thread once on its first step and leaves the
// thread's mask as it found it.
TEST(ThreadPool, DistRankKeepsItsAffinityMaskAfterItsFirstStep) {
  set_global_threads(1);
  auto comms = dist::Communicator::loopback(2);
  std::vector<cpu_set_t> before(2), after(2);
  const auto rank = [&](std::size_t r) {
    auto problem = core::make_free_packet_problem();
    core::TrainConfig config = core::default_train_config(1, /*seed=*/7);
    config.sampling.n_interior_x = 8;
    config.sampling.n_interior_t = 8;
    config.sampling.n_initial = 16;
    config.sampling.n_boundary = 8;
    config.dist = comms[r];
    core::Trainer trainer(problem, core::make_model_for(*problem, 11),
                          config);
    before[r] = own_mask();
    trainer.step(0);
    after[r] = own_mask();
  };
  std::thread other(rank, std::size_t{1});
  rank(0);
  other.join();
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(CPU_EQUAL(&before[r], &after[r])) << "rank " << r;
  }
  set_global_threads(default_num_threads());
}
#endif

TEST(ThreadPool, IdleTracksInflightWork) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.idle());
  std::promise<void> gate;
  std::promise<void> started;
  auto future = pool.submit([&] {
    started.set_value();
    gate.get_future().wait();
  });
  started.get_future().wait();  // the task is definitely executing now
  EXPECT_FALSE(pool.idle());
  gate.set_value();
  future.get();
  EXPECT_TRUE(pool.idle());
}

TEST(ThreadPool, ForEachIndexVisitsAll) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_index(257, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedInvocationDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.for_each_chunk(2, [&](std::size_t, std::size_t, std::size_t) {
    // Chunk 0 runs on the caller, so a nested call must not exhaust the
    // pool.
    pool.for_each_chunk(4, [&](std::size_t, std::size_t begin,
                               std::size_t end) {
      total += static_cast<int>(end - begin);
    });
  });
  EXPECT_EQ(total.load(), 8);
}

// A call made from inside a chunk -- the caller's chunk 0 or a worker's --
// runs the unchanged chunk_range partition inline, in chunk order, on the
// thread that made it, and hands nothing to the workers.
TEST(ThreadPool, NestedForEachChunkRunsPartitionInlineInOrder) {
  ThreadPool pool(4);
  struct Visit {
    std::size_t chunk, begin, end;
    std::thread::id thread;
  };
  std::vector<std::vector<Visit>> visits(4);
  std::vector<std::thread::id> hosts(4);
  const std::uint64_t before = pool.tasks_submitted();
  pool.for_each_chunk(4, [&](std::size_t outer, std::size_t, std::size_t) {
    hosts[outer] = std::this_thread::get_id();
    pool.for_each_chunk(10, [&](std::size_t c, std::size_t begin,
                                std::size_t end) {
      visits[outer].push_back({c, begin, end, std::this_thread::get_id()});
    });
  });
  // Only the three outer chunks were dispatched.
  EXPECT_EQ(pool.tasks_submitted() - before, 3u);
  for (std::size_t outer = 0; outer < 4; ++outer) {
    ASSERT_EQ(visits[outer].size(), 4u);
    for (std::size_t c = 0; c < 4; ++c) {
      const Visit& v = visits[outer][c];
      EXPECT_EQ(v.chunk, c);
      EXPECT_EQ(std::make_pair(v.begin, v.end), chunk_range(10, 4, c));
      EXPECT_EQ(v.thread, hosts[outer]);
    }
  }
}

TEST(ThreadPool, NonDispatchingForEachChunkRunsPartitionInline) {
  ThreadPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const std::uint64_t before = pool.tasks_submitted();
  pool.for_each_chunk(
      7,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        EXPECT_EQ(c, ranges.size());
        ranges.emplace_back(begin, end);
      },
      /*dispatch=*/false);
  EXPECT_EQ(pool.tasks_submitted(), before);
  ASSERT_EQ(ranges.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(ranges[c], chunk_range(7, 3, c));
  }
}

// A throwing nested chunk propagates out of both levels, and the caller's
// chunk-0 marker is cleared on the way out: the next top-level call
// dispatches again.
TEST(ThreadPool, NestedChunkExceptionPropagatesThenTopLevelDispatches) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each_chunk(4,
                          [&](std::size_t, std::size_t, std::size_t) {
                            pool.for_each_chunk(
                                8, [](std::size_t c, std::size_t, std::size_t) {
                                  if (c == 2) throw NumericsError("nested");
                                });
                          }),
      NumericsError);
  EXPECT_TRUE(pool.idle());
  const std::uint64_t before = pool.tasks_submitted();
  std::atomic<int> counter{0};
  pool.for_each_index(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.tasks_submitted() - before, 3u);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), ValueError);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_chunk(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, MatchesSerialSum) {
  std::vector<double> data(10000);
  std::iota(data.begin(), data.end(), 0.0);
  std::vector<double> out(data.size(), 0.0);
  // Priced high enough that the policy dispatches on a multi-thread pool.
  parallel_for(data.size(), cost::kScalar,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   out[i] = 2.0 * data[i];
                 }
               });
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_DOUBLE_EQ(out[i], 2.0 * data[i]);
  }
}

TEST(ParallelReduce, DeterministicAcrossCalls) {
  std::vector<double> data(100000);
  Rng rng(5);
  for (auto& v : data) v = rng.uniform(-1.0, 1.0);
  auto run = [&] {
    return parallel_reduce<double>(
        data.size(), cost::kPoly, 0.0,
        [&](std::size_t begin, std::size_t end, double acc) {
          for (std::size_t i = begin; i < end; ++i) acc += data[i];
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  const double first = run();
  for (int repeat = 0; repeat < 5; ++repeat) EXPECT_EQ(run(), first);
  // And close to the serial result.
  const double serial = std::accumulate(data.begin(), data.end(), 0.0);
  EXPECT_NEAR(first, serial, 1e-9 * std::abs(serial) + 1e-12);
}

TEST(DispatchPolicy, PaysOnlyWhenTheSavedTimeExceedsOneDispatch) {
  EXPECT_FALSE(dispatch_pays(1e9, 1));  // one chunk: nothing to hand off
  // Four chunks save three quarters of the work.
  EXPECT_FALSE(dispatch_pays(kDispatchNs * 4 / 3, 4));
  EXPECT_TRUE(dispatch_pays(kDispatchNs * 4 / 3 + 1, 4));
  EXPECT_FALSE(dispatch_pays(2 * kDispatchNs, 2));
  EXPECT_TRUE(dispatch_pays(2 * kDispatchNs + 1, 2));
}

TEST(DispatchPolicy, ParallelForAndReduceDispatchOnlyWhenWorkPays) {
  set_global_threads(4);
  const auto tasks = [](const std::function<void()>& fn) {
    const std::uint64_t before = global_pool().tasks_submitted();
    fn();
    return global_pool().tasks_submitted() - before;
  };
  const auto body = [](std::size_t, std::size_t) {};
  const auto chunk = [](std::size_t b, std::size_t e, double acc) {
    return acc + static_cast<double>(e - b);
  };
  const auto plus = [](double a, double b) { return a + b; };
  // 4096 streaming elements: a couple of microseconds of work.
  EXPECT_EQ(tasks([&] { parallel_for(4096, cost::kStream, body); }), 0u);
  EXPECT_EQ(tasks([&] {
              parallel_reduce<double>(4096, cost::kStream, 0.0, chunk, plus);
            }),
            0u);
  // A million libm-class elements: milliseconds.
  EXPECT_EQ(tasks([&] { parallel_for(1 << 20, cost::kScalar, body); }), 3u);
  double total = 0.0;
  EXPECT_EQ(tasks([&] {
              total = parallel_reduce<double>(1 << 20, cost::kScalar, 0.0,
                                              chunk, plus);
            }),
            3u);
  EXPECT_EQ(total, static_cast<double>(1 << 20));
  set_global_threads(default_num_threads());
}

TEST(GlobalPool, DefaultThreadsPositive) {
  EXPECT_GE(default_num_threads(), 1u);
  EXPECT_GE(global_pool().size(), 1u);
}

TEST(GlobalPool, Resizable) {
  set_global_threads(3);
  EXPECT_EQ(global_pool().size(), 3u);
  set_global_threads(default_num_threads());
}

TEST(GlobalPool, ResizeWhileBusyRaisesConfigError) {
  // The documented set_global_threads() contract: the pool must be idle.
  set_global_threads(2);
  std::promise<void> gate;
  std::promise<void> started;
  auto future = global_pool().submit([&] {
    started.set_value();
    gate.get_future().wait();
  });
  started.get_future().wait();
  EXPECT_THROW(set_global_threads(4), ConfigError);
  EXPECT_EQ(global_pool().size(), 2u);  // the busy pool was left in place
  gate.set_value();
  future.get();
  // Once idle again, the resize succeeds.
  set_global_threads(4);
  EXPECT_EQ(global_pool().size(), 4u);
  set_global_threads(default_num_threads());
}

}  // namespace
}  // namespace qpinn
