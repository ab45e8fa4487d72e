// Precision-generic kernel bodies: every chunked kernel written once.
//
// Each template here takes raw pointers and extents, dispatches through
// simd::table<T>() and owns its op's work estimate and split floor. They are
// instantiated for T = double by the Tensor kernels (tensor/kernels.cpp,
// which validate operands and shapes and then make one call here) and for
// T = float by mixed-precision plan replay (the kernels_f32:: names in
// tensor/kernels_f32.hpp are aliases of these templates). Because both
// element types run the same body, fp64 eager, fp64 replay and mixed
// replay cannot drift apart in dispatch, partition or fast-path choice.
//
// Nothing here checks shapes. Scalar immediates arrive as double and are
// cast to T once at entry (an identity cast for fp64). Reductions
// accumulate in and return double for both element types, so mixed-mode
// losses keep fp64 accumulation.
//
// Each executor states its work to the dispatch policy in
// parallel/parallel_for.hpp. Elementwise bits do not depend on the chunk
// cut; reductions, the sum_to row collapse and matmul rows do, so those
// split into the pool's partition only from a split floor on (the floors
// set the bits at pool sizes above 1 and decide no dispatch).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tensor/simd.hpp"

namespace qpinn::exec {

using Strides = std::vector<std::int64_t>;

/// Split floors: elements of a reduction, rows of a per-row weighted
/// reduction and of a sum_to row collapse (matmul: detail::matmul_sweep).
inline constexpr std::size_t kReduceSplit = 2048;
inline constexpr std::size_t kRowReduceSplit = 16;
inline constexpr std::size_t kCollapseSplit = 64;

namespace detail {

/// Calls f with the transparent std functor for `op`, so per-element loops
/// are instantiated once per operator instead of switching per element.
template <class F>
void with_op(simd::BinOp op, F&& f) {
  switch (op) {
    case simd::kAdd:
      f(std::plus<>{});
      break;
    case simd::kSub:
      f(std::minus<>{});
      break;
    case simd::kMul:
      f(std::multiplies<>{});
      break;
    default:
      f(std::divides<>{});
      break;
  }
}

/// A cost:: class for element type T (float registers hold twice the lanes).
template <class T>
constexpr double per_elem(double fp64_ns) {
  return fp64_ns * static_cast<double>(sizeof(T)) / sizeof(double);
}

/// o[i] = f(a[i]) over parallel chunks — for ops with no table kernel
/// (transcendentals, scalar operands).
template <class T, class F>
void map(const T* a, T* o, std::size_t n, F f) {
  parallel_for(n, per_elem<T>(cost::kScalar),
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) o[i] = f(a[i]);
               });
}

/// fn(a + begin, o + begin, count) over parallel chunks: one contiguous
/// table sweep per chunk, at `ns` fp64 ns per element.
template <class T, class Fn>
void sweep(const T* a, T* o, std::size_t n, Fn fn,
           double ns = cost::kStream) {
  parallel_for(n, per_elem<T>(ns), [&](std::size_t begin, std::size_t end) {
    fn(a + begin, o + begin, end - begin);
  });
}

/// Two-input contiguous table sweep.
template <class T>
void zip(void (*fn)(const T*, const T*, T*, std::size_t), const T* a,
         const T* b, T* o, std::size_t n) {
  parallel_for(n, per_elem<T>(cost::kStream),
               [&](std::size_t begin, std::size_t end) {
                 fn(a + begin, b + begin, o + begin, end - begin);
               });
}

/// Row kernel fn(a, b, o, rows, cols) over chunks of whole rows; `b` is
/// one row shared by every row of `a`.
template <class T, class Fn>
void row_sweep(const T* a, const T* b, T* o, std::size_t rows,
               std::size_t cols, double ns, Fn fn) {
  parallel_for(rows, per_elem<T>(ns) * static_cast<double>(cols),
               [&](std::size_t begin, std::size_t end) {
                 fn(a + begin * cols, b, o + begin * cols, end - begin, cols);
               });
}

/// fn(i, ia, ib) for the `n` elements of an output with row-major strides
/// `so`: ia and ib offset operands with strides `sa` and `sb`.
template <class Fn>
void strided(const Strides& sa, const Strides& sb, const Strides& so,
             std::size_t n, Fn fn) {
  parallel_for(n, cost::kScalar, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::int64_t rem = static_cast<std::int64_t>(i), ia = 0, ib = 0;
      for (std::size_t d = 0; d < so.size(); ++d) {
        const std::int64_t coord = rem / so[d];
        rem -= coord * so[d];
        ia += coord * sa[d];
        ib += coord * sb[d];
      }
      fn(i, ia, ib);
    }
  });
}

/// Sum of fn(begin, count) over `n` items of `width` T elements: one chunk
/// below `split` items, else the pool's partition combined in chunk order.
template <class T, class Fn>
double reduce(std::size_t n, Fn fn, std::size_t split = kReduceSplit,
              std::size_t width = 1) {
  const auto chunk = [&](std::size_t begin, std::size_t end, double acc) {
    return acc + fn(begin, end - begin);
  };
  if (n < split) return n == 0 ? 0.0 : chunk(0, n, 0.0);
  return parallel_reduce<double>(
      n, per_elem<T>(cost::kStream) * static_cast<double>(width), 0.0, chunk,
      [](double x, double y) { return x + y; });
}

/// fn(i0, i1) over chunks of output rows; each chunk's rows are tiled
/// separately, so rows split from max(4, 16384 / macs_per_row) on.
template <class T, class Fn>
void matmul_sweep(std::int64_t rows, std::int64_t macs_per_row, Fn fn) {
  const std::int64_t floor = 16384 / std::max<std::int64_t>(1, macs_per_row);
  if (rows < std::max<std::int64_t>(4, floor)) return fn(0, rows);
  const auto n = static_cast<std::size_t>(rows);
  ThreadPool& pool = global_pool();
  pool.for_each_chunk(
      n,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        fn(static_cast<std::int64_t>(begin), static_cast<std::int64_t>(end));
      },
      dispatch_pays(static_cast<double>(rows * macs_per_row) *
                        per_elem<T>(cost::kMac),
                    std::min(pool.size(), n)));
}

}  // namespace detail

// ---- elementwise binary ----------------------------------------------------

/// o[i] = a[i] op b[i].
template <class T>
void bin_same(simd::BinOp op, const T* a, const T* b, T* o, std::size_t n) {
  detail::zip(simd::table<T>().bin_same[op], a, b, o, n);
}

/// o[r][c] = a[r][c] op b[c] (rank-2 row broadcast, the bias pattern).
template <class T>
void bin_row(simd::BinOp op, const T* a, const T* b, T* o, std::size_t rows,
             std::size_t cols) {
  detail::row_sweep(a, b, o, rows, cols, cost::kStream,
                    simd::table<T>().bin_row[op]);
}

/// o[i] = a[i] op s (one-element right operand). add and mul run the
/// scalar table sweeps (IEEE add and mul commute, so the bits match the
/// per-element loop); sub and div stay per element.
template <class T>
void bin_scalar_rhs(simd::BinOp op, const T* a, double s, T* o,
                    std::size_t n) {
  if (op == simd::kAdd || op == simd::kMul) {
    const auto& t = simd::table<T>();
    auto* fn = op == simd::kAdd ? t.add_scalar : t.scale;
    detail::sweep(a, o, n,
                  [fn, s](const T* p, T* q, std::size_t c) { fn(p, s, q, c); });
    return;
  }
  const T sv = static_cast<T>(s);
  detail::with_op(op, [&](auto f) {
    detail::map(a, o, n, [f, sv](T x) { return f(x, sv); });
  });
}

/// o[i] = s op b[i] (one-element left operand); add and mul as in
/// bin_scalar_rhs.
template <class T>
void bin_scalar_lhs(simd::BinOp op, double s, const T* b, T* o,
                    std::size_t n) {
  if (op == simd::kAdd || op == simd::kMul) {
    bin_scalar_rhs(op, b, s, o, n);
    return;
  }
  const T sv = static_cast<T>(s);
  detail::with_op(op, [&](auto f) {
    detail::map(b, o, n, [f, sv](T x) { return f(sv, x); });
  });
}

/// General NumPy broadcast: o[i] = a[ia] op b[ib] for the `n` elements of
/// an output with row-major strides `so`; `sa`/`sb` are the operand
/// strides padded to the output rank with 0 on broadcast axes.
template <class T>
void bin_strided(simd::BinOp op, const T* a, const Strides& sa, const T* b,
                 const Strides& sb, T* o, const Strides& so, std::size_t n) {
  detail::with_op(op, [&](auto f) {
    detail::strided(sa, sb, so, n, [&](std::size_t i, auto ia, auto ib) {
      o[i] = f(a[ia], b[ib]);
    });
  });
}

// ---- elementwise unary ----------------------------------------------------

template <class T>
void neg(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().neg);
}
template <class T>
void square(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().square);
}
template <class T>
void sqrt(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().sqrt);
}
template <class T>
void reciprocal(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().reciprocal);
}
template <class T>
void abs(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().abs);
}
template <class T>
void sign(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().sign);
}
template <class T>
void tanh(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().tanh, cost::kPoly);
}

template <class T>
void exp(const T* a, T* o, std::size_t n) {
  detail::map(a, o, n, [](T x) { return std::exp(x); });
}
template <class T>
void log(const T* a, T* o, std::size_t n) {
  detail::map(a, o, n, [](T x) { return std::log(x); });
}
template <class T>
void sin(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().sin, cost::kPoly);
}
template <class T>
void cos(const T* a, T* o, std::size_t n) {
  detail::sweep(a, o, n, simd::table<T>().cos, cost::kPoly);
}

template <class T>
void scale(const T* a, double s, T* o, std::size_t n) {
  bin_scalar_rhs(simd::kMul, a, s, o, n);
}
template <class T>
void add_scalar(const T* a, double s, T* o, std::size_t n) {
  bin_scalar_rhs(simd::kAdd, a, s, o, n);
}
template <class T>
void pow_scalar(const T* a, double p, T* o, std::size_t n) {
  const T pv = static_cast<T>(p);
  detail::map(a, o, n, [pv](T x) { return std::pow(x, pv); });
}

// ---- fused kernels --------------------------------------------------------

/// o[r][c] = tanh(a[r][c] + b[c]) — fused hidden-layer forward.
template <class T>
void bias_tanh(const T* a, const T* b, T* o, std::size_t rows,
               std::size_t cols) {
  detail::row_sweep(a, b, o, rows, cols, cost::kPoly,
                    simd::table<T>().bias_tanh);
}

/// o[i] = g[i] * (1 - t[i]^2) — fused tanh backward.
template <class T>
void tanh_grad(const T* g, const T* t, T* o, std::size_t n) {
  detail::zip(simd::table<T>().tanh_grad, g, t, o, n);
}

// ---- data movement --------------------------------------------------------

template <class T>
void copy(T* dst, const T* src, std::size_t n) {
  std::copy(src, src + n, dst);
}
template <class T>
void fill_zero(T* o, std::size_t n) {
  std::fill(o, o + n, T{0});
}
/// o[i] = v for all i (a one-element broadcast_to).
template <class T>
void fill_value(T* o, double v, std::size_t n) {
  std::fill(o, o + n, static_cast<T>(v));
}

/// dst[i] = (To)src[i], the precision casts of kernels_f32.
template <class To, class From>
void convert(To* dst, const From* src, std::size_t n) {
  parallel_for(n, cost::kStream, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] = static_cast<To>(src[i]);
  });
}

/// dst[i] += s * src[i].
template <class T>
void axpy(T* dst, double s, const T* src, std::size_t n) {
  auto* fn = simd::table<T>().axpy;
  detail::sweep(src, dst, n, [fn, s](const T* ps, T* pd, std::size_t c) {
    fn(pd, s, ps, c);
  });
}
/// dst[i] *= s.
template <class T>
void scale_inplace(T* dst, double s, std::size_t n) {
  auto* fn = simd::table<T>().scale_inplace;
  detail::sweep(dst, dst, n,
                [fn, s](const T*, T* pd, std::size_t c) { fn(pd, s, c); });
}
/// Fused Adam sweep over one parameter buffer and its moments.
template <class T>
void adam(T* p, const T* g, T* m, T* v, std::size_t n,
          const simd::AdamParams& cfg) {
  auto* fn = simd::table<T>().adam;
  parallel_for(n, detail::per_elem<T>(cost::kPoly),
               [&](std::size_t begin, std::size_t end) {
                 fn(p + begin, g + begin, m + begin, v + begin, end - begin,
                    cfg);
               });
}

/// o[j][i] = a[i][j] for a (rows, cols) input.
template <class T>
void transpose(const T* a, T* o, std::int64_t rows, std::int64_t cols) {
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) o[j * rows + i] = a[i * cols + j];
  }
}

/// o[i] = a[ia]: a materialized broadcast to an output with row-major
/// strides `so`, `sa` padded as in bin_strided.
template <class T>
void broadcast_strided(const T* a, const Strides& sa, T* o, const Strides& so,
                       std::size_t n) {
  detail::strided(sa, sa, so, n,
                  [&](std::size_t i, auto ia, auto) { o[i] = a[ia]; });
}

/// o[c] = sum_r a[r][c] — the rank-2 row collapse of sum_to (the bias
/// gradient). From kCollapseSplit rows on, the rows are cut into the
/// pool's chunk partition (chunk_range) and the per-chunk partial rows
/// combine in chunk order, so the result is deterministic for a given
/// pool size, dispatched or inline.
template <class T>
void sum_to_rows(const T* a, T* o, std::size_t rows, std::size_t cols) {
  auto* fn = simd::table<T>().acc_add;
  std::fill(o, o + cols, T{0});
  if (rows < kCollapseSplit) {
    for (std::size_t r = 0; r < rows; ++r) fn(o, a + r * cols, cols);
    return;
  }
  ThreadPool& pool = global_pool();
  const std::size_t chunks = std::min(pool.size(), rows);
  // Chunk 0 accumulates straight into o, chunk c > 0 into partials row c-1.
  std::vector<T> partials((chunks - 1) * cols, T{0});
  pool.for_each_chunk(
      rows,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        T* acc = c == 0 ? o : partials.data() + (c - 1) * cols;
        for (std::size_t r = begin; r < end; ++r) fn(acc, a + r * cols, cols);
      },
      dispatch_pays(static_cast<double>(rows * cols) *
                        detail::per_elem<T>(cost::kStream),
                    chunks));
  for (std::size_t c = 1; c < chunks; ++c) {
    const T* p = partials.data() + (c - 1) * cols;
    for (std::size_t j = 0; j < cols; ++j) o[j] += p[j];
  }
}

/// General sum_to: serial accumulation of the `n` input elements (input
/// row-major strides `sa`) into `o` (strides `st`, 0 on reduced axes) —
/// outputs collide across inputs, so `o` (`n_out` elements) is zeroed
/// first.
template <class T>
void sum_to_strided(const T* a, const Strides& sa, T* o, const Strides& st,
                    std::int64_t n, std::int64_t n_out) {
  std::fill(o, o + n_out, T{0});
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t rem = i;
    std::int64_t it = 0;
    for (std::size_t d = 0; d < sa.size(); ++d) {
      const std::int64_t coord = rem / sa[d];
      rem -= coord * sa[d];
      it += coord * st[d];
    }
    o[it] += a[i];
  }
}

// ---- matmul ---------------------------------------------------------------
// Register-tiled micro-kernels from the SIMD table over chunks of output
// rows; the fringe paths accumulate into pre-zeroed output rows.

/// o[n,m] = a[n,k] * b[k,m].
template <class T>
void matmul(const T* a, const T* b, T* o, std::int64_t n, std::int64_t k,
            std::int64_t m) {
  std::fill(o, o + n * m, T{0});
  auto* fn = simd::table<T>().matmul_rows;
  detail::matmul_sweep<T>(n, k * m, [&](std::int64_t i0, std::int64_t i1) {
    fn(a, b, o, i0, i1, k, m);
  });
}

/// o[n,m] = a[k,n]^T * b[k,m].
template <class T>
void matmul_tn(const T* a, const T* b, T* o, std::int64_t n, std::int64_t k,
               std::int64_t m) {
  std::fill(o, o + n * m, T{0});
  auto* fn = simd::table<T>().matmul_tn_rows;
  detail::matmul_sweep<T>(n, k * m, [&](std::int64_t i0, std::int64_t i1) {
    fn(a, b, o, i0, i1, k, n, m);
  });
}

/// o[n,m] = a[n,k] * b[m,k]^T.
template <class T>
void matmul_nt(const T* a, const T* b, T* o, std::int64_t n, std::int64_t k,
               std::int64_t m) {
  std::fill(o, o + n * m, T{0});
  auto* fn = simd::table<T>().matmul_nt_rows;
  detail::matmul_sweep<T>(n, k * m, [&](std::int64_t i0, std::int64_t i1) {
    fn(a, b, o, i0, i1, k, m);
  });
}

// ---- reductions (double accumulation) -------------------------------------

template <class T>
double sum(const T* a, std::size_t n) {
  auto* fn = simd::table<T>().sum;
  return detail::reduce<T>(
      n, [&](std::size_t i, std::size_t c) { return fn(a + i, c); });
}
template <class T>
double square_sum(const T* a, std::size_t n) {
  auto* fn = simd::table<T>().square_sum;
  return detail::reduce<T>(
      n, [&](std::size_t i, std::size_t c) { return fn(a + i, c); });
}
/// sum_i w[i] * a[i]^2, same-shape contiguous operands.
template <class T>
double weighted_square_sum(const T* w, const T* a, std::size_t n) {
  auto* fn = simd::table<T>().weighted_square_sum;
  return detail::reduce<T>(
      n, [&](std::size_t i, std::size_t c) { return fn(w + i, a + i, c); });
}
/// sum_r w[r] * sum_c a[r][c]^2 — per-row weights (the PINN loss shape).
template <class T>
double weighted_square_sum_rows(const T* w, const T* a, std::size_t rows,
                                std::size_t cols) {
  auto* fn = simd::table<T>().square_sum;
  return detail::reduce<T>(
      rows,
      [&](std::size_t r0, std::size_t count) {
        double acc = 0.0;
        for (std::size_t r = r0; r < r0 + count; ++r) {
          acc += static_cast<double>(w[r]) * fn(a + r * cols, cols);
        }
        return acc;
      },
      kRowReduceSplit, cols);
}
template <class T>
double dot(const T* a, const T* b, std::size_t n) {
  auto* fn = simd::table<T>().dot;
  return detail::reduce<T>(
      n, [&](std::size_t i, std::size_t c) { return fn(a + i, b + i, c); });
}

}  // namespace qpinn::exec
