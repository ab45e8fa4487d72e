#include "tensor/storage_pool.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "util/env.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace qpinn {

namespace {

// Smallest tracked class: 8 doubles (64 bytes). Anything smaller is cheap
// enough that recycling it is not worth a bucket entry.
constexpr std::size_t kMinClass = 8;

/// Smallest power-of-two class that can hold `n` elements.
std::size_t class_ceil(std::size_t n) {
  std::size_t c = kMinClass;
  while (c < n) c <<= 1;
  return c;
}

/// Largest class a buffer of capacity `cap` can serve, or 0 when the buffer
/// is below the smallest tracked class.
std::size_t class_floor(std::size_t cap) {
  if (cap < kMinClass) return 0;
  std::size_t c = kMinClass;
  while ((c << 1) <= cap) c <<= 1;
  return c;
}

}  // namespace

namespace detail {

/// Shared pool state. Held by shared_ptr from both the StoragePool facade
/// and every outstanding buffer's holder, so releases remain safe during
/// and after static destruction of the facade.
struct PoolCore {
  mutable Mutex mutex;
  std::unordered_map<std::size_t, std::vector<std::vector<double>>> buckets
      QPINN_GUARDED_BY(mutex);
  std::unordered_map<std::size_t, std::vector<std::vector<float>>> buckets_f32
      QPINN_GUARDED_BY(mutex);
  std::size_t free_buffers QPINN_GUARDED_BY(mutex) = 0;
  std::size_t free_bytes QPINN_GUARDED_BY(mutex) = 0;
  std::size_t max_free_bytes = 0;

  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> heap_allocations{0};
  std::atomic<std::uint64_t> pool_reuses{0};
  std::atomic<std::uint64_t> adopted{0};
  std::atomic<std::uint64_t> returns{0};
  std::atomic<std::uint64_t> discards{0};
  std::atomic<std::uint64_t> live_bytes{0};
  std::atomic<std::uint64_t> live_high_water{0};

  /// Counts a buffer of `bytes` payload handed out by the pool.
  void note_acquired(std::size_t bytes) {
    const std::uint64_t live =
        live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t high = live_high_water.load(std::memory_order_relaxed);
    while (high < live && !live_high_water.compare_exchange_weak(
                              high, live, std::memory_order_relaxed)) {
    }
  }

  /// Counts a pooled buffer of `bytes` payload coming back.
  void note_released(std::size_t bytes) {
    live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Pops a parked buffer of class `cls` into `out`; false when none.
  bool take(std::size_t cls, std::vector<double>& out) {
    MutexLock lock(mutex);
    auto it = buckets.find(cls);
    if (it == buckets.end() || it->second.empty()) return false;
    out = std::move(it->second.back());
    it->second.pop_back();
    --free_buffers;
    free_bytes -= out.capacity() * sizeof(double);
    return true;
  }

  /// Parks a released buffer, or lets it free when the pool is off, the
  /// buffer is below the smallest class, or the byte cap is reached.
  void give(std::vector<double>&& v) {
    const std::size_t cls = class_floor(v.capacity());
    const std::size_t bytes = v.capacity() * sizeof(double);
    note_released(v.size() * sizeof(double));
    if (cls == 0 || !enabled.load(std::memory_order_relaxed)) {
      discards.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    {
      MutexLock lock(mutex);
      if (free_bytes + bytes <= max_free_bytes) {
        buckets[cls].push_back(std::move(v));
        ++free_buffers;
        free_bytes += bytes;
        returns.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    discards.fetch_add(1, std::memory_order_relaxed);
  }

  /// fp32 twins of take/give over the separate float buckets; same class
  /// scheme (class sizes are element counts, not bytes) and same caps.
  bool take_f32(std::size_t cls, std::vector<float>& out) {
    MutexLock lock(mutex);
    auto it = buckets_f32.find(cls);
    if (it == buckets_f32.end() || it->second.empty()) return false;
    out = std::move(it->second.back());
    it->second.pop_back();
    --free_buffers;
    free_bytes -= out.capacity() * sizeof(float);
    return true;
  }

  void give_f32(std::vector<float>&& v) {
    const std::size_t cls = class_floor(v.capacity());
    const std::size_t bytes = v.capacity() * sizeof(float);
    note_released(v.size() * sizeof(float));
    if (cls == 0 || !enabled.load(std::memory_order_relaxed)) {
      discards.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    {
      MutexLock lock(mutex);
      if (free_bytes + bytes <= max_free_bytes) {
        buckets_f32[cls].push_back(std::move(v));
        ++free_buffers;
        free_bytes += bytes;
        returns.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    discards.fetch_add(1, std::memory_order_relaxed);
  }
};

namespace {

/// Owner object aliased by the storage shared_ptr: destruction of the last
/// reference recycles the vector instead of freeing it.
struct PooledHolder {
  std::shared_ptr<PoolCore> core;
  std::vector<double> v;

  PooledHolder() = default;
  PooledHolder(const PooledHolder&) = delete;
  PooledHolder& operator=(const PooledHolder&) = delete;
  ~PooledHolder() {
    if (core) core->give(std::move(v));
  }
};

/// Float twin of PooledHolder.
struct PooledHolderF {
  std::shared_ptr<PoolCore> core;
  std::vector<float> v;

  PooledHolderF() = default;
  PooledHolderF(const PooledHolderF&) = delete;
  PooledHolderF& operator=(const PooledHolderF&) = delete;
  ~PooledHolderF() {
    if (core) core->give_f32(std::move(v));
  }
};

}  // namespace

}  // namespace detail

StoragePool::StoragePool() : core_(std::make_shared<detail::PoolCore>()) {
  core_->enabled.store(!env_flag("QPINN_NO_POOL"), std::memory_order_relaxed);
  const long long mb = std::max(0LL, env_int("QPINN_POOL_MAX_MB", 512));
  core_->max_free_bytes = static_cast<std::size_t>(mb) * 1024 * 1024;
}

StoragePool& StoragePool::instance() {
  static StoragePool pool;
  return pool;
}

std::shared_ptr<std::vector<double>> StoragePool::acquire(std::size_t n,
                                                          bool zero) {
  detail::PoolCore& core = *core_;
  if (!core.enabled.load(std::memory_order_relaxed)) {
    core.heap_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<std::vector<double>>(n, 0.0);
  }
  auto holder = std::make_shared<detail::PooledHolder>();
  const std::size_t cls = class_ceil(std::max(n, std::size_t{1}));
  if (core.take(cls, holder->v)) {
    core.pool_reuses.fetch_add(1, std::memory_order_relaxed);
    if (zero) {
      holder->v.assign(n, 0.0);
    } else {
      holder->v.resize(n);
    }
  } else {
    core.heap_allocations.fetch_add(1, std::memory_order_relaxed);
    holder->v.reserve(cls);
    holder->v.resize(n, 0.0);
  }
  core.note_acquired(n * sizeof(double));
  holder->core = core_;
  return std::shared_ptr<std::vector<double>>(holder, &holder->v);
}

std::shared_ptr<std::vector<float>> StoragePool::acquire_f32(std::size_t n,
                                                             bool zero) {
  detail::PoolCore& core = *core_;
  if (!core.enabled.load(std::memory_order_relaxed)) {
    core.heap_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<std::vector<float>>(n, 0.0F);
  }
  auto holder = std::make_shared<detail::PooledHolderF>();
  const std::size_t cls = class_ceil(std::max(n, std::size_t{1}));
  if (core.take_f32(cls, holder->v)) {
    core.pool_reuses.fetch_add(1, std::memory_order_relaxed);
    if (zero) {
      holder->v.assign(n, 0.0F);
    } else {
      holder->v.resize(n);
    }
  } else {
    core.heap_allocations.fetch_add(1, std::memory_order_relaxed);
    holder->v.reserve(cls);
    holder->v.resize(n, 0.0F);
  }
  core.note_acquired(n * sizeof(float));
  holder->core = core_;
  return std::shared_ptr<std::vector<float>>(holder, &holder->v);
}

std::shared_ptr<std::vector<double>> StoragePool::adopt(
    std::vector<double> values) {
  detail::PoolCore& core = *core_;
  core.adopted.fetch_add(1, std::memory_order_relaxed);
  if (!core.enabled.load(std::memory_order_relaxed)) {
    return std::make_shared<std::vector<double>>(std::move(values));
  }
  auto holder = std::make_shared<detail::PooledHolder>();
  holder->v = std::move(values);
  core.note_acquired(holder->v.size() * sizeof(double));
  holder->core = core_;
  return std::shared_ptr<std::vector<double>>(holder, &holder->v);
}

bool StoragePool::enabled() const {
  return core_->enabled.load(std::memory_order_relaxed);
}

void StoragePool::set_enabled(bool on) {
  core_->enabled.store(on, std::memory_order_relaxed);
  if (!on) trim();
}

StoragePoolStats StoragePool::stats() const {
  const detail::PoolCore& core = *core_;
  StoragePoolStats s;
  s.heap_allocations = core.heap_allocations.load(std::memory_order_relaxed);
  s.pool_reuses = core.pool_reuses.load(std::memory_order_relaxed);
  s.adopted = core.adopted.load(std::memory_order_relaxed);
  s.returns = core.returns.load(std::memory_order_relaxed);
  s.discards = core.discards.load(std::memory_order_relaxed);
  s.live_bytes = core.live_bytes.load(std::memory_order_relaxed);
  s.live_high_water_bytes =
      core.live_high_water.load(std::memory_order_relaxed);
  MutexLock lock(core.mutex);
  s.free_buffers = core.free_buffers;
  s.free_bytes = core.free_bytes;
  return s;
}

void StoragePool::reset_stats() {
  detail::PoolCore& core = *core_;
  core.heap_allocations.store(0, std::memory_order_relaxed);
  core.pool_reuses.store(0, std::memory_order_relaxed);
  core.adopted.store(0, std::memory_order_relaxed);
  core.returns.store(0, std::memory_order_relaxed);
  core.discards.store(0, std::memory_order_relaxed);
}

void StoragePool::reset_high_water() {
  detail::PoolCore& core = *core_;
  core.live_high_water.store(core.live_bytes.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
}

void StoragePool::trim() {
  detail::PoolCore& core = *core_;
  // Swap the buckets out so the (potentially large) frees happen unlocked.
  std::unordered_map<std::size_t, std::vector<std::vector<double>>> drained;
  std::unordered_map<std::size_t, std::vector<std::vector<float>>> drained_f;
  {
    MutexLock lock(core.mutex);
    drained.swap(core.buckets);
    drained_f.swap(core.buckets_f32);
    core.free_buffers = 0;
    core.free_bytes = 0;
  }
}

}  // namespace qpinn
