// Convenience wrappers over the global ThreadPool. Called from inside a
// chunk of that pool (a trainer shard task, say), they run the same
// chunk_range partition inline on the calling thread
// (ThreadPool::for_each_chunk): shard-level parallelism owns the pool and
// the kernels inside a shard run serially, with unchanged results.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace qpinn {

/// Runs body(begin, end) over a static partition of [0, n). For small `n`
/// (below `grain`) the body runs once over [0, n) on the calling thread,
/// avoiding pool overhead for tiny kernels; nested calls run every chunk
/// inline (see above).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 2048);

/// Deterministic parallel reduction: partial results are produced per
/// chunk and combined in chunk order, so the result does not depend on
/// thread scheduling, nor on whether the call is nested.
///
///   double s = parallel_reduce<double>(n, 0.0,
///       [&](size_t b, size_t e, double acc){ ... return acc; },
///       [](double a, double b){ return a + b; });
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(std::size_t n, T init, ChunkFn chunk_fn,
                  CombineFn combine_fn, std::size_t grain = 2048) {
  if (n == 0) return init;
  if (n < grain || global_pool().size() == 1) {
    return chunk_fn(std::size_t{0}, n, std::move(init));
  }
  ThreadPool& pool = global_pool();
  const std::size_t chunks = std::min(pool.size(), n);
  std::vector<T> partials(chunks, init);
  pool.for_each_chunk(n, [&](std::size_t c, std::size_t begin,
                             std::size_t end) {
    partials[c] = chunk_fn(begin, end, partials[c]);
  });
  // Combine in fixed chunk order for determinism.
  T result = partials[0];
  for (std::size_t c = 1; c < chunks; ++c) {
    result = combine_fn(std::move(result), std::move(partials[c]));
  }
  return result;
}

}  // namespace qpinn
