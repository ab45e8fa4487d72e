// Chunked loops over the global ThreadPool and the one policy that decides
// whether a call reaches its workers: a caller states its work in serial
// ns (elements times a cost:: class) and dispatch_pays weighs it against
// one dispatch. Dispatch changes no result (same chunks either way); inside
// a pool chunk, such as a trainer shard task, every call runs inline.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace qpinn {

/// One dispatch on a 4-vCPU x86 VM, 4 threads, as measured on 4 workers.
/// On the caller plus 3 placed workers an empty round trip
/// (parallel/dispatch_us) reads 16-17 us and real chunks break even at
/// 17-31 us; 40 us keeps the sweeps after a sharded step inline.
inline constexpr double kDispatchNs = 40000.0;

/// Serial ns per fp64 element or matmul multiply-add, same VM, one thread.
namespace cost {
inline constexpr double kStream = 0.4;  ///< add/mul/axpy, casts, dot, sums
inline constexpr double kPoly = 5.0;    ///< table tanh/sin/cos, Adam
inline constexpr double kScalar = 10.0;  ///< libm loops, stride decoding
inline constexpr double kMac = 0.1;     ///< one matmul multiply-add
}  // namespace cost

/// True when handing chunks 1.. of `work_ns` to the workers saves more
/// than the dispatch costs.
inline bool dispatch_pays(double work_ns, std::size_t chunks) {
  return chunks > 1 && work_ns * static_cast<double>(chunks - 1) >
                           kDispatchNs * static_cast<double>(chunks);
}

/// body(begin, end) over [0, n) at `ns_per_item` of work per index: once
/// over [0, n) when a dispatch does not pay, else over the pool's chunk
/// partition. The body must give the same result for any cut of [0, n).
inline void parallel_for(
    std::size_t n, double ns_per_item,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const double work = static_cast<double>(n) * ns_per_item;
  // No chunk count pays below one dispatch: skip the pool's locked accessor.
  if (work > kDispatchNs) {
    ThreadPool& pool = global_pool();
    if (dispatch_pays(work, std::min(pool.size(), n))) {
      pool.for_each_chunk(n, [&](std::size_t, std::size_t b, std::size_t e) {
        body(b, e);
      });
      return;
    }
  }
  if (n > 0) body(0, n);
}

/// Deterministic reduction over the pool's chunk partition: per-chunk
/// partials combined in chunk order, so the result depends on the pool
/// size only, not on scheduling, nesting or dispatch.
///
///   double s = parallel_reduce<double>(n, cost::kStream, 0.0,
///       [&](size_t b, size_t e, double acc){ ... return acc; },
///       [](double a, double b){ return a + b; });
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::size_t n, double ns_per_item, T init, ChunkFn chunk_fn,
                  CombineFn combine_fn) {
  if (n == 0) return init;
  ThreadPool& pool = global_pool();
  const std::size_t chunks = std::min(pool.size(), n);
  if (chunks == 1) return chunk_fn(std::size_t{0}, n, std::move(init));
  std::vector<T> partials(chunks, init);
  pool.for_each_chunk(
      n,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        partials[c] = chunk_fn(begin, end, partials[c]);
      },
      dispatch_pays(static_cast<double>(n) * ns_per_item, chunks));
  T result = partials[0];
  for (std::size_t c = 1; c < chunks; ++c) {
    result = combine_fn(std::move(result), std::move(partials[c]));
  }
  return result;
}

}  // namespace qpinn
