// Host-serialization check for multi-thread timings (bench_report, T3).
//
// A fresh process can keep all its threads on one CPU for about its first
// second, and a wall-clock row then measures the scheduler, not the code.
// Every multi-thread timing therefore records the cores it used over its
// timed window (process CPU time over wall time); a window below
// 0.6 x min(threads, nproc) cores is host-serialized and is re-timed, at
// most kMaxRetimes times, before it is reported as such.
#pragma once

#include <algorithm>
#include <cstddef>
#include <ctime>
#include <thread>
#include <utility>

#include "util/timer.hpp"

namespace qpinn::bench {

inline constexpr double kSerializedShare = 0.6;
inline constexpr int kMaxRetimes = 3;

/// CPU seconds used so far by every thread of this process.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Cores used since construction or reset(): process CPU time over wall
/// time.
class CoresUsed {
 public:
  void reset() {
    wall_.reset();
    cpu0_ = process_cpu_seconds();
  }

  double cores() const {
    const double wall = wall_.seconds();
    return wall > 0.0 ? (process_cpu_seconds() - cpu0_) / wall : 0.0;
  }

 private:
  Stopwatch wall_;
  double cpu0_ = process_cpu_seconds();
};

/// True when a window of `threads` busy threads used too few cores. A
/// one-thread window is never serialized.
inline bool host_serialized(double cores, std::size_t threads) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const double bar =
      kSerializedShare * static_cast<double>(std::min(threads, nproc));
  return threads > 1 && cores < bar;
}

template <class T>
struct CoresTiming {
  T value;
  double cores = 0.0;
  bool serialized = false;
};

/// Runs `window(meter)` (one timed window that resets `meter` where its
/// timed part starts, and returns its measurement) and re-times it while
/// it is host-serialized, at most kMaxRetimes times.
template <class Window>
auto time_threads(std::size_t threads, Window window)
    -> CoresTiming<decltype(window(std::declval<CoresUsed&>()))> {
  for (int retimes = 0;; ++retimes) {
    CoresUsed meter;
    auto value = window(meter);
    const double cores = meter.cores();
    const bool serialized = host_serialized(cores, threads);
    if (!serialized || retimes == kMaxRetimes) {
      return {std::move(value), cores, serialized};
    }
  }
}

}  // namespace qpinn::bench
