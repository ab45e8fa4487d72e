// Size-bucketed recycling pool behind Tensor storage allocation.
//
// Every Tensor buffer in qpinn is a shared std::vector<double>. A training
// step builds and tears down a tape of thousands of short-lived tensors
// whose sizes repeat exactly from step to step, so instead of paying the
// global allocator per tensor, released buffers park in per-size-class free
// lists and the next acquire of a compatible size reuses them. Buffers are
// handed out exclusively (a pooled buffer is never shared between two live
// tensors) and zero-filled on reuse, so Tensor semantics are unchanged —
// the pool is purely an allocation strategy, observable only through its
// stats counters and the profiler.
//
// Concurrency: acquire/release take one short lock on the bucket table;
// buffers themselves are touched only by their owning tensor. Safe to call
// from pool worker threads (kernels allocate their outputs before
// dispatching, but backward closures run wherever the caller runs).
//
// Escape hatch: set QPINN_NO_POOL=1 to fall back to plain heap allocation
// (every acquire is a fresh vector, every release frees); useful for
// bisecting pool bugs and for measuring the allocation win (see
// bench/bench_report.cpp). QPINN_POOL_MAX_MB caps the bytes parked in free
// lists (default 512); beyond the cap released buffers are freed outright.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace qpinn {

/// Point-in-time counters. Monotonic fields survive reset_stats() = false;
/// all are process-lifetime totals until reset_stats() zeroes them.
struct StoragePoolStats {
  std::uint64_t heap_allocations = 0;  ///< buffers built fresh from the heap
  std::uint64_t pool_reuses = 0;       ///< acquires served from a free list
  std::uint64_t adopted = 0;           ///< caller-built vectors wrapped
  std::uint64_t returns = 0;           ///< releases parked in a free list
  std::uint64_t discards = 0;          ///< releases freed (cap hit/pool off)
  std::uint64_t free_buffers = 0;      ///< buffers currently parked
  std::uint64_t free_bytes = 0;        ///< capacity bytes currently parked
  /// Payload bytes of pooled buffers handed out (acquired or adopted while
  /// the pool is on) and not yet released, fp64 and fp32 alike.
  std::uint64_t live_bytes = 0;
  /// Highest live_bytes since startup or the last reset_high_water().
  std::uint64_t live_high_water_bytes = 0;
};

namespace detail {
struct PoolCore;
}  // namespace detail

class StoragePool {
 public:
  /// Process-wide pool used by all Tensor storage allocation.
  static StoragePool& instance();

  StoragePool(const StoragePool&) = delete;
  StoragePool& operator=(const StoragePool&) = delete;

  /// An exclusively owned buffer of exactly `n` elements. Zero-filled when
  /// `zero` (the Tensor constructor contract); with zero=false the contents
  /// are unspecified and the caller must overwrite every element (clone()).
  std::shared_ptr<std::vector<double>> acquire(std::size_t n,
                                               bool zero = true);

  /// Float twin of acquire(), backed by separate fp32 free lists — the
  /// mixed-precision plan shadows (src/autodiff/precision.cpp) recycle
  /// through here instead of the heap. Shares the enabled flag, byte cap,
  /// and stats counters with the fp64 buckets.
  std::shared_ptr<std::vector<float>> acquire_f32(std::size_t n,
                                                  bool zero = true);

  /// Wraps a caller-constructed vector (Tensor::from_vector) so its buffer
  /// recycles through the pool on release like any acquired one.
  std::shared_ptr<std::vector<double>> adopt(std::vector<double> values);

  /// False when QPINN_NO_POOL was set at startup or set_enabled(false) was
  /// called: acquires allocate fresh and releases free immediately.
  bool enabled() const;
  /// Runtime toggle for tests and benchmarks (e.g. measuring the allocation
  /// win). Outstanding buffers release safely regardless of the setting.
  void set_enabled(bool on);

  StoragePoolStats stats() const;
  /// Zeroes the monotonic counters (free_buffers/free_bytes and the live
  /// gauges reflect actual buffers and are unaffected).
  void reset_stats();
  /// Restarts the live high-water mark at the current live_bytes, so a
  /// caller can read the peak of one phase (e.g. one training step).
  void reset_high_water();
  /// Frees every parked buffer.
  void trim();

 private:
  StoragePool();

  std::shared_ptr<detail::PoolCore> core_;
};

}  // namespace qpinn
