#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/benchmarks.hpp"
#include "optim/adam.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/executors.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_f32.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qpinn::kernels {
namespace {

Tensor random(Shape shape, std::uint64_t seed, double lo = -2.0,
              double hi = 2.0) {
  Rng rng(seed);
  return Tensor::rand(std::move(shape), rng, lo, hi);
}

// ---- binary elementwise with broadcasting -----------------------------------

struct BroadcastCase {
  Shape a, b, expected;
};

class BroadcastP : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastP, AddMatchesManualIndexing) {
  const auto& param = GetParam();
  const Tensor a = random(param.a, 1);
  const Tensor b = random(param.b, 2);
  const Tensor c = add(a, b);
  ASSERT_EQ(c.shape(), param.expected);
  // Verify a few representative entries via explicit index math.
  const auto sa = row_major_strides(param.a);
  const auto sb = row_major_strides(param.b);
  const auto sc = row_major_strides(param.expected);
  const std::size_t rank = param.expected.size();
  for (std::int64_t flat = 0; flat < c.numel(); ++flat) {
    std::int64_t rem = flat, ia = 0, ib = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      const std::int64_t coord = rem / sc[d];
      rem -= coord * sc[d];
      const std::size_t off_a = rank - param.a.size();
      const std::size_t off_b = rank - param.b.size();
      if (d >= off_a && param.a[d - off_a] != 1) ia += coord * sa[d - off_a];
      if (d >= off_b && param.b[d - off_b] != 1) ib += coord * sb[d - off_b];
    }
    ASSERT_DOUBLE_EQ(c[flat], a[ia] + b[ib]) << "flat " << flat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastP,
    ::testing::Values(BroadcastCase{{3, 4}, {3, 4}, {3, 4}},
                      BroadcastCase{{3, 4}, {1, 4}, {3, 4}},
                      BroadcastCase{{3, 4}, {4}, {3, 4}},
                      BroadcastCase{{3, 1}, {1, 4}, {3, 4}},
                      BroadcastCase{{3, 4}, {}, {3, 4}},
                      BroadcastCase{{}, {2, 2}, {2, 2}},
                      BroadcastCase{{5}, {3, 5}, {3, 5}},
                      BroadcastCase{{3, 1}, {3, 4}, {3, 4}}));

TEST(Kernels, BinaryOpsValues) {
  const Tensor a = Tensor::from_vector({4.0, 9.0}, {2});
  const Tensor b = Tensor::from_vector({2.0, 3.0}, {2});
  EXPECT_DOUBLE_EQ(sub(a, b)[0], 2.0);
  EXPECT_DOUBLE_EQ(mul(a, b)[1], 27.0);
  EXPECT_DOUBLE_EQ(div(a, b)[0], 2.0);
  EXPECT_THROW(add(Tensor::zeros({2, 3}), Tensor::zeros({2, 4})), ShapeError);
}

// ---- unary elementwise -----------------------------------------------------------

TEST(Kernels, UnaryMatchStd) {
  const Tensor x = random({17}, 3, 0.1, 2.0);
  const Tensor ex = exp(x), lx = log(x), sx = sin(x), cx = cos(x),
               tx = tanh(x), qx = sqrt(x), rx = reciprocal(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_DOUBLE_EQ(ex[i], std::exp(x[i]));
    EXPECT_DOUBLE_EQ(lx[i], std::log(x[i]));
    EXPECT_DOUBLE_EQ(sx[i], std::sin(x[i]));
    EXPECT_DOUBLE_EQ(cx[i], std::cos(x[i]));
    // tanh dispatches to the vectorized polynomial kernel: a few ulp from
    // libm (and bit-identical across SIMD variants), not bit-equal to it.
    EXPECT_NEAR(tx[i], std::tanh(x[i]), 5e-15);
    EXPECT_DOUBLE_EQ(qx[i], std::sqrt(x[i]));
    EXPECT_DOUBLE_EQ(rx[i], 1.0 / x[i]);
  }
}

TEST(Kernels, SigmoidSoftplusStable) {
  const Tensor x = Tensor::from_vector({-700.0, -1.0, 0.0, 1.0, 700.0}, {5});
  const Tensor s = sigmoid(x), sp = softplus(x);
  EXPECT_NEAR(s[0], 0.0, 1e-12);
  EXPECT_NEAR(s[4], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s[2], 0.5);
  EXPECT_TRUE(sp.all_finite());
  EXPECT_NEAR(sp[4], 700.0, 1e-9);
  EXPECT_NEAR(sp[0], 0.0, 1e-12);
}

TEST(Kernels, StepReluAbsSign) {
  const Tensor x = Tensor::from_vector({-2.0, 0.0, 3.0}, {3});
  EXPECT_DOUBLE_EQ(step(x)[0], 0.0);
  EXPECT_DOUBLE_EQ(step(x)[1], 0.0);
  EXPECT_DOUBLE_EQ(step(x)[2], 1.0);
  EXPECT_DOUBLE_EQ(relu(x)[0], 0.0);
  EXPECT_DOUBLE_EQ(relu(x)[2], 3.0);
  EXPECT_DOUBLE_EQ(abs(x)[0], 2.0);
  EXPECT_DOUBLE_EQ(sign(x)[0], -1.0);
  EXPECT_DOUBLE_EQ(sign(x)[1], 0.0);
  EXPECT_DOUBLE_EQ(sign(x)[2], 1.0);
}

TEST(Kernels, ScaleAddScalarPow) {
  const Tensor x = Tensor::from_vector({1.0, 2.0, 3.0}, {3});
  EXPECT_DOUBLE_EQ(scale(x, -2.0)[2], -6.0);
  EXPECT_DOUBLE_EQ(add_scalar(x, 0.5)[0], 1.5);
  EXPECT_DOUBLE_EQ(square(x)[2], 9.0);
  EXPECT_DOUBLE_EQ(pow_scalar(x, 3.0)[1], 8.0);
  EXPECT_DOUBLE_EQ(neg(x)[0], -1.0);
}

// ---- matmul family -------------------------------------------------------------------

TEST(Kernels, MatmulAgainstNaive) {
  const Tensor a = random({7, 5}, 11);
  const Tensor b = random({5, 9}, 12);
  const Tensor c = matmul(a, b);
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 9; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < 5; ++k) acc += a.at(i, k) * b.at(k, j);
      ASSERT_NEAR(c.at(i, j), acc, 1e-12);
    }
  }
}

TEST(Kernels, MatmulVariantsConsistent) {
  const Tensor a = random({6, 4}, 21);
  const Tensor b = random({6, 3}, 22);
  const Tensor tn = matmul_tn(a, b);               // a^T b: (4, 3)
  const Tensor expected = matmul(transpose(a), b);
  ASSERT_EQ(tn.shape(), expected.shape());
  for (std::int64_t i = 0; i < tn.numel(); ++i) {
    ASSERT_NEAR(tn[i], expected[i], 1e-12);
  }
}

TEST(Kernels, MatmulNtAgainstTranspose) {
  const Tensor a = random({5, 4}, 31);
  const Tensor b = random({6, 4}, 32);
  const Tensor nt = matmul_nt(a, b);  // a b^T: (5, 6)
  const Tensor expected = matmul(a, transpose(b));
  for (std::int64_t i = 0; i < nt.numel(); ++i) {
    ASSERT_NEAR(nt[i], expected[i], 1e-12);
  }
}

// The tiled kernels change summation order vs the naive triple loop, so
// equality is up to rounding: scale the tolerance by the accumulated
// magnitude rather than using a fixed epsilon.
void expect_matmul_matches_naive(const Tensor& a, const Tensor& b) {
  const Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{a.rows(), b.cols()}));
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0, mag = 0.0;
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
        mag += std::abs(a.at(i, k) * b.at(k, j));
      }
      ASSERT_NEAR(c.at(i, j), acc, 1e-12 * std::max(1.0, mag))
          << "(" << i << ", " << j << ") for " << a.rows() << "x" << a.cols()
          << " * " << b.rows() << "x" << b.cols();
    }
  }
}

TEST(Kernels, TiledMatmulMatchesNaiveOnAwkwardShapes) {
  // Shapes chosen to exercise every fringe of the 4x8 register tiling:
  // single elements, sub-tile rows/cols, prime extents, and sizes just
  // past tile boundaries.
  struct Dims {
    std::int64_t n, k, m;
  };
  const Dims cases[] = {{1, 1, 1},    {2, 7, 2},   {5, 2, 9},
                        {4, 8, 8},    {7, 13, 5},  {17, 31, 29},
                        {33, 17, 9},  {3, 64, 65}, {16, 1, 8}};
  std::uint64_t seed = 100;
  for (const auto& d : cases) {
    const Tensor a = random({d.n, d.k}, seed++);
    const Tensor b = random({d.k, d.m}, seed++);
    expect_matmul_matches_naive(a, b);
  }
}

TEST(Kernels, TiledMatmulVariantsMatchOnAwkwardShapes) {
  const Tensor a = random({13, 7}, 201);
  const Tensor b = random({13, 5}, 202);
  const Tensor tn = matmul_tn(a, b);
  const Tensor tn_ref = matmul(transpose(a), b);
  for (std::int64_t i = 0; i < tn.numel(); ++i) {
    ASSERT_NEAR(tn[i], tn_ref[i], 1e-11);
  }
  const Tensor c = random({11, 17}, 203);
  const Tensor d = random({9, 17}, 204);
  const Tensor nt = matmul_nt(c, d);
  const Tensor nt_ref = matmul(c, transpose(d));
  for (std::int64_t i = 0; i < nt.numel(); ++i) {
    ASSERT_NEAR(nt[i], nt_ref[i], 1e-11);
  }
}

/// out[i][c] = sum_kk a(i, kk) * b(kk, c), each element started from 0 and
/// accumulated in k order with a rounded product (volatile keeps the
/// compiler from contracting it): the operation sequence of the matmul
/// micro-kernels' fringe.
template <class T, class A, class B>
std::vector<T> fringe_reference(std::int64_t n, std::int64_t k,
                                std::int64_t m, A a, B b) {
  std::vector<T> out(static_cast<std::size_t>(n * m));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < m; ++c) {
      T acc = T(0);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const volatile T prod = a(i, kk) * b(kk, c);
        acc = acc + prod;
      }
      out[static_cast<std::size_t>(i * m + c)] = acc;
    }
  }
  return out;
}

template <class T>
void expect_narrow_fringe_matches_reference(std::int64_t n, std::int64_t k,
                                            std::int64_t m,
                                            std::uint64_t seed) {
  Rng rng(seed);
  const auto fill = [&](std::int64_t count) {
    std::vector<T> v(static_cast<std::size_t>(count));
    for (T& x : v) x = static_cast<T>(rng.uniform() * 4.0 - 2.0);
    return v;
  };
  const std::vector<T> a = fill(n * k), at = fill(k * n);
  const std::vector<T> b = fill(k * m), bt = fill(m * k);
  const std::string what = std::string(simd::active().name) + " " +
                           std::to_string(n) + "x" + std::to_string(k) +
                           "x" + std::to_string(m);
  // Every column of an output narrower than the 8-column tile is fringe,
  // and so is column 8 of a 9-wide one, wherever the chunks cut the rows.
  // The last row of an odd row count is fringe under every row tile, so
  // whole-range table calls also check the full column tiles' row fringe.
  const auto check = [&](const std::vector<T>& got, const std::vector<T>& ref,
                         const char* op, bool whole_range) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t c = 0; c < m; ++c) {
        if (c < 8 * (m / 8) && !(whole_range && i == n - 1)) continue;
        const auto e = static_cast<std::size_t>(i * m + c);
        ASSERT_EQ(std::memcmp(&got[e], &ref[e], sizeof(T)), 0)
            << op << " " << what << " element (" << i << ", " << c << ")";
      }
    }
  };
  std::vector<T> got(static_cast<std::size_t>(n * m));
  const auto& table = simd::table<T>();

  const auto ref_nn = fringe_reference<T>(
      n, k, m, [&](auto i, auto kk) { return a[i * k + kk]; },
      [&](auto kk, auto c) { return b[kk * m + c]; });
  exec::matmul(a.data(), b.data(), got.data(), n, k, m);
  check(got, ref_nn, "matmul", false);
  std::fill(got.begin(), got.end(), T(0));
  table.matmul_rows(a.data(), b.data(), got.data(), 0, n, k, m);
  check(got, ref_nn, "matmul_rows", true);

  const auto ref_tn = fringe_reference<T>(
      n, k, m, [&](auto i, auto kk) { return at[kk * n + i]; },
      [&](auto kk, auto c) { return b[kk * m + c]; });
  exec::matmul_tn(at.data(), b.data(), got.data(), n, k, m);
  check(got, ref_tn, "matmul_tn", false);
  std::fill(got.begin(), got.end(), T(0));
  table.matmul_tn_rows(at.data(), b.data(), got.data(), 0, n, k, n, m);
  check(got, ref_tn, "matmul_tn_rows", true);

  const auto ref_nt = fringe_reference<T>(
      n, k, m, [&](auto i, auto kk) { return a[i * k + kk]; },
      [&](auto kk, auto c) { return bt[c * k + kk]; });
  exec::matmul_nt(a.data(), bt.data(), got.data(), n, k, m);
  check(got, ref_nt, "matmul_nt", false);
  std::fill(got.begin(), got.end(), T(0));
  table.matmul_nt_rows(a.data(), bt.data(), got.data(), 0, n, k, m);
  check(got, ref_nt, "matmul_nt_rows", true);
}

TEST(Kernels, NarrowMatmulFringeMatchesTheScalarLoopBitForBit) {
  const simd::Isa original = simd::active_isa();
  std::uint64_t seed = 300;
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const std::int64_t m : {1, 2, 3, 7, 9}) {
      for (const std::int64_t n : {1, 5, 11, 903}) {
        for (const std::int64_t k : {1, 7, 64, 600}) {
          expect_narrow_fringe_matches_reference<double>(n, k, m, seed);
          expect_narrow_fringe_matches_reference<float>(n, k, m, seed++);
        }
      }
    }
  }
  simd::force_isa(original);
}

// Regression for the IEEE zero-skip bug: the old inner loops skipped
// `a_ik == 0.0` terms, so a zero row silently swallowed NaN/Inf coming
// from the other operand (0 * NaN must be NaN, and the sum must stay NaN).
TEST(Kernels, MatmulPropagatesNanThroughZeroOperand) {
  const Tensor zero = Tensor::zeros({3, 4});
  Tensor b = random({4, 2}, 301);
  b.at(2, 1) = std::numeric_limits<double>::quiet_NaN();
  const Tensor c = matmul(zero, b);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(std::isnan(c.at(i, 0))) << "clean column poisoned, row " << i;
    EXPECT_TRUE(std::isnan(c.at(i, 1))) << "NaN dropped in row " << i;
  }
}

TEST(Kernels, MatmulPropagatesInfThroughZeroOperand) {
  Tensor a = random({5, 3}, 302);
  a.at(1, 2) = std::numeric_limits<double>::infinity();
  const Tensor zero = Tensor::zeros({3, 6});
  const Tensor c = matmul(a, zero);
  for (std::int64_t j = 0; j < 6; ++j) {
    EXPECT_TRUE(std::isnan(c.at(1, j))) << "Inf * 0 dropped in col " << j;
    EXPECT_FALSE(std::isnan(c.at(0, j)));
  }
}

TEST(Kernels, MatmulTnAndNtPropagateNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Tensor a = Tensor::zeros({4, 3});
  Tensor b = random({4, 2}, 303);
  b.at(3, 0) = nan;
  const Tensor tn = matmul_tn(a, b);  // (3, 2)
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isnan(tn.at(i, 0)));
    EXPECT_FALSE(std::isnan(tn.at(i, 1)));
  }
  Tensor c = Tensor::zeros({2, 5});
  Tensor d = random({3, 5}, 304);
  d.at(1, 4) = nan;
  const Tensor nt = matmul_nt(c, d);  // (2, 3)
  for (std::int64_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isnan(nt.at(i, 1)));
    EXPECT_FALSE(std::isnan(nt.at(i, 0)));
  }
}

// Regression for the grain heuristic collapsing to 1: a matmul with only
// a couple of rows but a large k*m used to dispatch one pool task per row.
// The row split floor keeps it one chunk on the calling thread; the
// pool's dispatch counter must not move.
TEST(Kernels, TinyMatmulRunsSerial) {
  const Tensor a = random({2, 200}, 401);
  const Tensor b = random({200, 100}, 402);  // k*m = 20000 > serial budget
  const std::uint64_t before = global_pool().tasks_submitted();
  const Tensor c = matmul(a, b);
  EXPECT_EQ(global_pool().tasks_submitted(), before);
  ASSERT_EQ(c.shape(), (Shape{2, 100}));
}

TEST(Kernels, LargeMatmulDispatchesWhenWorkersAvailable) {
  // for_each_chunk always runs chunk 0 inline, so dispatch only happens
  // with >= 2 workers; on a single-core pool this degenerates (correctly)
  // to fully serial execution.
  if (global_pool().size() < 2) GTEST_SKIP() << "single-worker pool";
  // 2 Mi multiply-adds: well above what one dispatch costs.
  const Tensor a = random({512, 64}, 403);
  const Tensor b = random({64, 64}, 404);
  const std::uint64_t before = global_pool().tasks_submitted();
  matmul(a, b);
  EXPECT_GT(global_pool().tasks_submitted(), before);
}

TEST(Kernels, MatmulShapeErrors) {
  EXPECT_THROW(matmul(Tensor::zeros({2, 3}), Tensor::zeros({4, 2})),
               ShapeError);
  EXPECT_THROW(matmul(Tensor::zeros({6}), Tensor::zeros({6, 1})), ShapeError);
}

TEST(Kernels, TransposeInvolution) {
  const Tensor a = random({4, 7}, 41);
  const Tensor tt = transpose(transpose(a));
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_DOUBLE_EQ(tt[i], a[i]);
}

// ---- reductions --------------------------------------------------------------------------

TEST(Kernels, SumAndMean) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  EXPECT_DOUBLE_EQ(sum_all(a).item(), 10.0);
  EXPECT_DOUBLE_EQ(mean_all(a).item(), 2.5);
}

TEST(Kernels, SumToCollapsesBroadcastAxes) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  const Tensor rows = sum_to(a, {1, 3});
  EXPECT_DOUBLE_EQ(rows.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(rows.at(0, 2), 9.0);
  const Tensor cols = sum_to(a, {2, 1});
  EXPECT_DOUBLE_EQ(cols.at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(cols.at(1, 0), 15.0);
  const Tensor scalar = sum_to(a, {});
  EXPECT_DOUBLE_EQ(scalar.item(), 21.0);
  EXPECT_THROW(sum_to(a, {3, 3}), ShapeError);
}

TEST(Kernels, BroadcastToMaterializes) {
  const Tensor row = Tensor::from_vector({1, 2, 3}, {1, 3});
  const Tensor big = broadcast_to(row, {4, 3});
  for (std::int64_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(big.at(r, 1), 2.0);
  }
  EXPECT_THROW(broadcast_to(Tensor::zeros({2, 3}), Shape{2, 4}), ShapeError);
}

// Regression for the shapes-equal aliasing bug: sum_to/broadcast_to used
// to return the input tensor itself when no reduction/expansion was
// needed, so "fresh output" callers (autodiff accumulation, in-place
// optimizer updates) silently mutated the source through the alias.
TEST(Kernels, SumToSameShapeReturnsFreshStorage) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor s = sum_to(a, {2, 2});
  ASSERT_FALSE(s.shares_storage(a));
  s.data()[0] = 99.0;
  EXPECT_DOUBLE_EQ(a[0], 1.0) << "mutating the result corrupted the source";
  EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(Kernels, BroadcastToSameShapeReturnsFreshStorage) {
  const Tensor a = Tensor::from_vector({5, 6}, {2});
  Tensor b = broadcast_to(a, {2});
  ASSERT_FALSE(b.shares_storage(a));
  b.data()[1] = -1.0;
  EXPECT_DOUBLE_EQ(a[1], 6.0);
  EXPECT_DOUBLE_EQ(b[0], 5.0);
}

TEST(Kernels, SumToBroadcastToAreAdjoint) {
  // <broadcast(x), y> == <x, sum_to(y)> for all x, y — the property the
  // autodiff backward rules rely on.
  const Tensor x = random({1, 4}, 51);
  const Tensor y = random({3, 4}, 52);
  const double lhs = dot(broadcast_to(x, {3, 4}), y);
  const double rhs = dot(x, sum_to(y, {1, 4}));
  EXPECT_NEAR(lhs, rhs, 1e-12);
}

// ---- structural ------------------------------------------------------------------------------

TEST(Kernels, ConcatSliceColsRoundTrip) {
  const Tensor a = random({3, 2}, 61);
  const Tensor b = random({3, 3}, 62);
  const Tensor c = concat_cols({a, b});
  ASSERT_EQ(c.shape(), (Shape{3, 5}));
  const Tensor a2 = slice_cols(c, 0, 2);
  const Tensor b2 = slice_cols(c, 2, 5);
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_DOUBLE_EQ(a2[i], a[i]);
  for (std::int64_t i = 0; i < b.numel(); ++i) ASSERT_DOUBLE_EQ(b2[i], b[i]);
  EXPECT_THROW(slice_cols(c, 2, 2), ShapeError);
  EXPECT_THROW(slice_cols(c, 0, 6), ShapeError);
}

TEST(Kernels, ConcatSliceRowsRoundTrip) {
  const Tensor a = random({2, 4}, 63);
  const Tensor b = random({3, 4}, 64);
  const Tensor c = concat_rows({a, b});
  ASSERT_EQ(c.shape(), (Shape{5, 4}));
  const Tensor b2 = slice_rows(c, 2, 5);
  for (std::int64_t i = 0; i < b.numel(); ++i) ASSERT_DOUBLE_EQ(b2[i], b[i]);
  EXPECT_THROW(concat_rows({a, Tensor::zeros({2, 5})}), ShapeError);
}

// ---- in-place helpers --------------------------------------------------------------------------

TEST(Kernels, InplaceHelpers) {
  Tensor a = Tensor::from_vector({1, 2}, {2});
  const Tensor b = Tensor::from_vector({10, 20}, {2});
  axpy_inplace(a, 0.5, b);
  EXPECT_DOUBLE_EQ(a[0], 6.0);
  scale_inplace(a, 2.0);
  EXPECT_DOUBLE_EQ(a[1], 24.0);
  copy_into(a, b);
  EXPECT_DOUBLE_EQ(a[0], 10.0);
  EXPECT_THROW(copy_into(a, Tensor::zeros({3})), ShapeError);
}

TEST(Kernels, DotAndNorm) {
  const Tensor a = Tensor::from_vector({3, 4}, {2});
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

// ---- value kernels vs their _into twins -----------------------------------

/// Equal shapes and equal bytes, so NaN payloads and signed zeros count.
bool same_bits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(double) * static_cast<std::size_t>(x.numel())) ==
             0;
}

/// One value kernel call and the same call through its _into twin.
struct TwinCase {
  std::string kernel;
  std::string operands;
  std::function<Tensor()> value;
  std::function<void(Tensor&)> into;
};

std::string shape_list(const std::vector<Tensor>& ts) {
  std::string s;
  for (const Tensor& t : ts) s += shape_to_string(t.shape());
  return s;
}

/// Every value-returning kernel over the shape classes its fast paths
/// distinguish: same shape, scalar rhs/lhs (rank-0 against {1,1}
/// included), row broadcast, general broadcast, sum_to row collapse and
/// general case, per-row weights — at sizes 1, 3, 257 and 13x17, plus
/// 70x65, which is large enough to split into parallel chunks.
std::vector<TwinCase> twin_cases() {
  std::vector<TwinCase> cases;
  std::uint64_t seed = 900;
  const auto rnd = [&seed](Shape s, double lo = -2.0, double hi = 2.0) {
    return random(std::move(s), seed++, lo, hi);
  };
  const auto add_case = [&cases](const char* kernel,
                                 const std::vector<Tensor>& ins,
                                 std::function<Tensor()> value,
                                 std::function<void(Tensor&)> into) {
    cases.push_back(
        {kernel, shape_list(ins), std::move(value), std::move(into)});
  };
  const std::vector<Shape> sizes = {{1}, {3}, {257}, {13, 17}, {70, 65}};

  using Binary = Tensor (*)(const Tensor&, const Tensor&);
  using BinaryInto = void (*)(Tensor&, const Tensor&, const Tensor&);
  const std::vector<std::tuple<const char*, Binary, BinaryInto>> binaries = {
      {"add", &add, &add_into},
      {"sub", &sub, &sub_into},
      {"mul", &mul, &mul_into},
      {"div", &div, &div_into}};
  std::vector<std::pair<Shape, Shape>> pairs = {
      {{}, {1, 1}},       {{1, 1}, {}},       {{1}, {1, 1}},
      {{13, 17}, {17}},   {{13, 17}, {1, 17}}, {{70, 65}, {65}},
      {{1, 17}, {17}},    {{13, 1}, {1, 17}}, {{17}, {13, 17}},
      {{3, 1}, {3, 257}}, {{13, 17}, {13, 1}}};
  for (const Shape& s : sizes) {
    pairs.push_back({s, s});
    pairs.push_back({s, {}});
    pairs.push_back({{}, s});
    pairs.push_back({s, {1}});
  }
  for (const auto& [name, f, f_into] : binaries) {
    for (const auto& [sa, sb] : pairs) {
      const Tensor a = rnd(sa);
      const Tensor b = rnd(sb, 0.5, 2.0);  // away from 0 for div
      add_case(name, {a, b}, [=, f = f] { return f(a, b); },
               [=, f_into = f_into](Tensor& o) { f_into(o, a, b); });
    }
  }

  using Unary = Tensor (*)(const Tensor&);
  using UnaryInto = void (*)(Tensor&, const Tensor&);
  const std::vector<std::tuple<const char*, Unary, UnaryInto>> unaries = {
      {"neg", &neg, &neg_into},
      {"exp", &exp, &exp_into},
      {"log", &log, &log_into},
      {"tanh", &tanh, &tanh_into},
      {"sin", &sin, &sin_into},
      {"cos", &cos, &cos_into},
      {"sqrt", &sqrt, &sqrt_into},
      {"reciprocal", &reciprocal, &reciprocal_into},
      {"square", &square, &square_into},
      {"sigmoid", &sigmoid, &sigmoid_into},
      {"softplus", &softplus, &softplus_into},
      {"step", &step, &step_into},
      {"relu", &relu, &relu_into},
      {"abs", &abs, &abs_into},
      {"sign", &sign, &sign_into},
      {"transpose", &transpose, &transpose_into},
      {"sum_all", &sum_all, &sum_all_into},
      {"mean_all", &mean_all, &mean_all_into},
      {"square_sum_all", &square_sum_all, &square_sum_all_into}};
  using UnaryS = Tensor (*)(const Tensor&, double);
  using UnarySInto = void (*)(Tensor&, const Tensor&, double);
  const std::vector<std::tuple<const char*, UnaryS, UnarySInto, double>>
      scalar_unaries = {{"scale", &scale, &scale_into, -1.75},
                        {"add_scalar", &add_scalar, &add_scalar_into, 0.3},
                        {"pow_scalar", &pow_scalar, &pow_scalar_into, 2.5}};
  std::vector<Shape> unary_shapes = sizes;
  unary_shapes.push_back({});
  unary_shapes.push_back({1, 1});
  for (const Shape& s : unary_shapes) {
    const Tensor x = rnd(s);
    const Tensor pos = rnd(s, 0.1, 2.0);  // log/sqrt/pow domain
    for (const auto& [name, f, f_into] : unaries) {
      const std::string n = name;
      if (n == "transpose" && s.size() != 2) continue;
      const Tensor& in = (n == "log" || n == "sqrt") ? pos : x;
      add_case(name, {in}, [=, f = f] { return f(in); },
               [=, f_into = f_into](Tensor& o) { f_into(o, in); });
    }
    for (const auto& [name, f, f_into, p] : scalar_unaries) {
      const Tensor& in = std::string(name) == "pow_scalar" ? pos : x;
      add_case(name, {in}, [=, f = f, p = p] { return f(in, p); },
               [=, f_into = f_into, p = p](Tensor& o) { f_into(o, in, p); });
    }
    const Tensor t = rnd(s, -1.0, 1.0);
    add_case("tanh_grad", {x, t}, [=] { return tanh_grad(x, t); },
             [=](Tensor& o) { tanh_grad_into(o, x, t); });
    const Tensor w = rnd(s, 0.5, 2.0);
    add_case("weighted_square_sum_all", {w, x},
             [=] { return weighted_square_sum_all(w, x); },
             [=](Tensor& o) { weighted_square_sum_all_into(o, w, x); });
  }
  // Per-row weights against rank-2 residuals.
  for (const Shape& s : {Shape{13, 17}, Shape{70, 65}, Shape{3, 1}}) {
    const Tensor x = rnd(s);
    for (const Shape& ws : {Shape{s[0]}, Shape{s[0], 1}}) {
      const Tensor w = rnd(ws, 0.5, 2.0);
      add_case("weighted_square_sum_all", {w, x},
               [=] { return weighted_square_sum_all(w, x); },
               [=](Tensor& o) { weighted_square_sum_all_into(o, w, x); });
    }
  }

  // Matmul trio: (n,k) x (k,m) over fringe-heavy extents.
  for (const auto& [n, k, m] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {3, 3, 3}, {13, 17, 13}, {257, 3, 5}, {70, 65, 9}}) {
    const Tensor a = rnd({n, k});
    const Tensor b = rnd({k, m});
    add_case("matmul", {a, b}, [=] { return matmul(a, b); },
             [=](Tensor& o) { matmul_into(o, a, b); });
    const Tensor at = rnd({k, n});
    add_case("matmul_tn", {at, b}, [=] { return matmul_tn(at, b); },
             [=](Tensor& o) { matmul_tn_into(o, at, b); });
    const Tensor bt = rnd({m, k});
    add_case("matmul_nt", {a, bt}, [=] { return matmul_nt(a, bt); },
             [=](Tensor& o) { matmul_nt_into(o, a, bt); });
  }

  // sum_to: same shape, row collapse ({m} and {1,m}), general case.
  const std::vector<std::pair<Shape, Shape>> reductions = {
      {{13, 17}, {13, 17}}, {{13, 17}, {17}},  {{13, 17}, {1, 17}},
      {{70, 65}, {65}},     {{1, 17}, {17}},   {{13, 17}, {13, 1}},
      {{13, 17}, {}},       {{257}, {1}},      {{3}, {}},
      {{1}, {}},            {{3, 1, 257}, {1, 257}}};
  for (const auto& [from, to] : reductions) {
    const Tensor a = rnd(from);
    add_case("sum_to", {a}, [=, to = to] { return sum_to(a, to); },
             [=](Tensor& o) { sum_to_into(o, a); });
  }
  for (const auto& [to, from] : reductions) {
    const Tensor a = rnd(from);
    add_case("broadcast_to", {a}, [=, to = to] { return broadcast_to(a, to); },
             [=](Tensor& o) { broadcast_to_into(o, a); });
  }

  // Fused bias activations: bias {m} and {1,m}.
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1, 1}, {3, 3}, {13, 17}, {257, 3}, {70, 65}}) {
    const Tensor a = rnd({rows, cols});
    for (const Shape& bs : {Shape{cols}, Shape{1, cols}}) {
      const Tensor bias = rnd(bs);
      add_case("bias_tanh", {a, bias}, [=] { return bias_tanh(a, bias); },
               [=](Tensor& o) { bias_tanh_into(o, a, bias); });
      add_case("bias_sin", {a, bias}, [=] { return bias_sin(a, bias); },
               [=](Tensor& o) { bias_sin_into(o, a, bias); });
    }
  }

  // Structural kernels.
  const Tensor p = rnd({13, 17});
  const Tensor q = rnd({13, 3});
  const Tensor r = rnd({1, 17});
  add_case("concat_cols", {p, q}, [=] { return concat_cols({p, q}); },
           [=](Tensor& o) { concat_cols_into(o, {p, q}); });
  add_case("concat_rows", {p, r}, [=] { return concat_rows({p, r}); },
           [=](Tensor& o) { concat_rows_into(o, {p, r}); });
  add_case("slice_cols", {p}, [=] { return slice_cols(p, 3, 16); },
           [=](Tensor& o) { slice_cols_into(o, p, 3, 16); });
  add_case("slice_rows", {p}, [=] { return slice_rows(p, 1, 12); },
           [=](Tensor& o) { slice_rows_into(o, p, 1, 12); });
  return cases;
}

TEST(Kernels, EveryValueKernelEqualsItsIntoTwinBitForBit) {
  const std::vector<TwinCase> cases = twin_cases();
  std::set<std::string> kernels;
  for (const TwinCase& c : cases) kernels.insert(c.kernel);
  EXPECT_EQ(kernels.size(), 39u) << "a value kernel lost its twin case";

  const simd::Isa original = simd::active_isa();
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const TwinCase& c : cases) {
      const Tensor want = c.value();
      // A dirty output proves the _into writes every element itself.
      Tensor got =
          Tensor::full(want.shape(), std::numeric_limits<double>::quiet_NaN());
      c.into(got);
      EXPECT_TRUE(same_bits(want, got))
          << c.kernel << " on " << c.operands << " under "
          << simd::isa_name(isa);
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
}

// ---- calls from inside a pool chunk ---------------------------------------

/// The bytes of a kernel result, compared with memcmp.
template <class T>
std::vector<unsigned char> bytes_of(const T* p, std::size_t n) {
  std::vector<unsigned char> out(n * sizeof(T));
  std::memcpy(out.data(), p, out.size());
  return out;
}
std::vector<unsigned char> bytes_of(const Tensor& t) {
  return bytes_of(t.data(), static_cast<std::size_t>(t.numel()));
}
std::vector<unsigned char> bytes_of(double v) { return bytes_of(&v, 1); }

std::vector<float> to_f32(const Tensor& t) {
  std::vector<float> out(static_cast<std::size_t>(t.numel()));
  kernels_f32::downcast(out.data(), t.data(), out.size());
  return out;
}

/// One kernel call whose bits depend on the chunk partition.
struct ChunkedCase {
  std::string kernel;
  std::function<std::vector<unsigned char>()> run;
};

/// Every kernel whose result depends on the chunk count, fp64 and fp32,
/// at sizes above its split floor: the reductions combine per-chunk
/// partials, the sum_to row collapse adds per-chunk partial rows (a narrow
/// and a wide collapse), and the matmul family's row-tile fringe follows
/// each chunk's row count.
std::vector<ChunkedCase> chunked_cases() {
  std::vector<ChunkedCase> cases;
  const Tensor v = random({10007}, 950);
  const Tensor u = random({10007}, 951);
  const Tensor w = random({10007}, 952, 0.0, 1.0);
  const Tensor rows = random({257, 3}, 953);
  const Tensor row_w = random({257, 1}, 954, 0.0, 1.0);
  const Tensor narrow = random({257, 17}, 955);
  const Tensor wide = random({1031, 257}, 956);
  const Tensor a = random({517, 33}, 957);
  const Tensor at = random({33, 517}, 958);
  const Tensor b = random({33, 19}, 959);
  const Tensor bt = random({19, 33}, 960);

  cases.push_back({"sum", [=] { return bytes_of(sum_all(v)); }});
  cases.push_back({"dot", [=] { return bytes_of(dot(v, u)); }});
  cases.push_back(
      {"square_sum", [=] { return bytes_of(square_sum_all(v)); }});
  cases.push_back({"weighted_square_sum",
                   [=] { return bytes_of(weighted_square_sum_all(w, v)); }});
  cases.push_back(
      {"weighted_square_sum_rows",
       [=] { return bytes_of(weighted_square_sum_all(row_w, rows)); }});
  cases.push_back(
      {"sum_to_rows 257x17", [=] { return bytes_of(sum_to(narrow, {17})); }});
  cases.push_back(
      {"sum_to_rows 1031x257", [=] { return bytes_of(sum_to(wide, {257})); }});
  cases.push_back({"matmul", [=] { return bytes_of(matmul(a, b)); }});
  cases.push_back({"matmul_tn", [=] { return bytes_of(matmul_tn(at, b)); }});
  cases.push_back({"matmul_nt", [=] { return bytes_of(matmul_nt(a, bt)); }});

  const std::vector<float> vf = to_f32(v);
  const std::vector<float> uf = to_f32(u);
  const std::vector<float> wf = to_f32(w);
  const std::vector<float> rowsf = to_f32(rows);
  const std::vector<float> row_wf = to_f32(row_w);
  const std::vector<float> narrowf = to_f32(narrow);
  const std::vector<float> widef = to_f32(wide);
  const std::vector<float> af = to_f32(a);
  const std::vector<float> atf = to_f32(at);
  const std::vector<float> bf = to_f32(b);
  const std::vector<float> btf = to_f32(bt);
  const std::size_t n = vf.size();
  const auto collapse = [](const std::vector<float>& x, std::size_t r,
                           std::size_t c) {
    std::vector<float> o(c);
    kernels_f32::sum_to_rows(x.data(), o.data(), r, c);
    return bytes_of(o.data(), c);
  };
  using Matmul = void (*)(const float*, const float*, float*, std::int64_t,
                          std::int64_t, std::int64_t);
  const auto product = [](Matmul fn, const std::vector<float>& x,
                          const std::vector<float>& y) {
    std::vector<float> o(517 * 19);
    fn(x.data(), y.data(), o.data(), 517, 33, 19);
    return bytes_of(o.data(), o.size());
  };

  cases.push_back({"f32 sum", [=] {
                     return bytes_of(kernels_f32::sum(vf.data(), n));
                   }});
  cases.push_back({"f32 dot", [=] {
                     return bytes_of(exec::dot(vf.data(), uf.data(), n));
                   }});
  cases.push_back({"f32 square_sum", [=] {
                     return bytes_of(kernels_f32::square_sum(vf.data(), n));
                   }});
  cases.push_back({"f32 weighted_square_sum", [=] {
                     return bytes_of(kernels_f32::weighted_square_sum(
                         wf.data(), vf.data(), n));
                   }});
  cases.push_back({"f32 weighted_square_sum_rows", [=] {
                     return bytes_of(kernels_f32::weighted_square_sum_rows(
                         row_wf.data(), rowsf.data(), 257, 3));
                   }});
  cases.push_back({"f32 sum_to_rows 257x17",
                   [=] { return collapse(narrowf, 257, 17); }});
  cases.push_back({"f32 sum_to_rows 1031x257",
                   [=] { return collapse(widef, 1031, 257); }});
  cases.push_back({"f32 matmul", [=] {
                     return product(&kernels_f32::matmul<float>, af, bf);
                   }});
  cases.push_back({"f32 matmul_tn", [=] {
                     return product(&exec::matmul_tn<float>, atf, bf);
                   }});
  cases.push_back({"f32 matmul_nt", [=] {
                     return product(&exec::matmul_nt<float>, af, btf);
                   }});
  return cases;
}

// A kernel called from inside a chunk of the global pool -- the caller's
// chunk 0 or a worker's chunk -- must give the same bytes as the same call
// at top level, on every ISA: the trainer's shard tasks replay exactly
// these kernels.
TEST(Kernels, ChunkedKernelsInsidePoolChunkMatchTopLevelBitForBit) {
  set_global_threads(4);
  const std::vector<ChunkedCase> cases = chunked_cases();
  const simd::Isa original = simd::active_isa();
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const ChunkedCase& c : cases) {
      const std::vector<unsigned char> want = c.run();
      for (const std::size_t host : {std::size_t{0}, std::size_t{3}}) {
        std::vector<unsigned char> got;
        global_pool().for_each_chunk(
            4, [&](std::size_t chunk, std::size_t, std::size_t) {
              if (chunk == host) got = c.run();
            });
        ASSERT_EQ(got.size(), want.size()) << c.kernel;
        EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
            << c.kernel << " inside chunk " << host << " under "
            << simd::isa_name(isa);
      }
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
  set_global_threads(default_num_threads());
}

// ---- the dispatch policy ---------------------------------------------------

/// Pool tasks submitted while `fn` runs.
std::uint64_t tasks_during(const std::function<void()>& fn) {
  const std::uint64_t before = global_pool().tasks_submitted();
  fn();
  return global_pool().tasks_submitted() - before;
}

// The sweeps after a 4-shard B1 step (the shard-gradient axpys, the grad
// norm and Adam) are a few microseconds each: a dispatch would cost more
// than it saves, so none of them reaches the workers.
TEST(DispatchPolicy, EpilogueSizedCallsSubmitNoTasks) {
  set_global_threads(4);
  Tensor acc = random({64, 64}, 970);
  const Tensor g = random({64, 64}, 971);
  EXPECT_EQ(tasks_during([&] { axpy_inplace(acc, 0.25, g); }), 0u);
  const Tensor v = random({128, 64}, 972);
  EXPECT_EQ(tasks_during([&] { dot(v, v); }), 0u);

  auto problem = core::make_free_packet_problem();
  auto model = core::make_model_for(*problem, 7);
  optim::Adam adam(model->parameters(), {});
  std::vector<Tensor> grads;
  std::uint64_t seed = 973;
  for (const auto& p : model->parameters()) {
    grads.push_back(random(p.value().shape(), seed++));
  }
  EXPECT_EQ(tasks_during([&] { adam.step(grads); }), 0u);
  set_global_threads(default_num_threads());
}

TEST(DispatchPolicy, CallFarAboveTheThresholdDispatches) {
  set_global_threads(4);
  const Tensor a = random({1 << 20}, 974);
  const Tensor b = random({1 << 20}, 975);
  EXPECT_EQ(tasks_during([&] { add(a, b); }), 3u);
  EXPECT_EQ(tasks_during([&] { dot(a, b); }), 3u);
  set_global_threads(default_num_threads());
}

/// Every chunked kernel family at a size the policy dispatches at top
/// level, fp64 and fp32: same-shape, row-broadcast, fused bias
/// activations, the reductions, the sum_to row collapse, the matmul trio
/// and the casts.
std::vector<ChunkedCase> dispatched_cases() {
  constexpr std::size_t kRows = 2400, kCols = 125, kN = kRows * kCols;
  constexpr std::int64_t kN_ = 1031, kK = 65, kM = 37;
  std::vector<ChunkedCase> cases;
  const Tensor x = random({static_cast<std::int64_t>(kRows),
                           static_cast<std::int64_t>(kCols)}, 980);
  const Tensor y = random(x.shape(), 981);
  const Tensor row = random({1, static_cast<std::int64_t>(kCols)}, 982);
  const Tensor w = random(x.shape(), 983, 0.0, 1.0);
  const Tensor row_w = random({static_cast<std::int64_t>(kRows), 1}, 984,
                              0.0, 1.0);
  const Tensor a = random({kN_, kK}, 985);
  const Tensor at = random({kK, kN_}, 986);
  const Tensor b = random({kK, kM}, 987);
  const Tensor bt = random({kM, kK}, 988);

  cases.push_back({"add", [=] { return bytes_of(add(x, y)); }});
  cases.push_back({"tanh", [=] { return bytes_of(tanh(x)); }});
  cases.push_back({"add row", [=] { return bytes_of(add(x, row)); }});
  cases.push_back({"bias_tanh", [=] { return bytes_of(bias_tanh(x, row)); }});
  cases.push_back({"bias_sin", [=] { return bytes_of(bias_sin(x, row)); }});
  cases.push_back({"sum", [=] { return bytes_of(sum_all(x)); }});
  cases.push_back({"dot", [=] { return bytes_of(dot(x, y)); }});
  cases.push_back({"square_sum", [=] { return bytes_of(square_sum_all(x)); }});
  cases.push_back({"weighted_square_sum",
                   [=] { return bytes_of(weighted_square_sum_all(w, x)); }});
  cases.push_back({"weighted_square_sum_rows", [=] {
                     return bytes_of(weighted_square_sum_all(row_w, x));
                   }});
  cases.push_back({"parallel_reduce", [=] {
                     return bytes_of(parallel_reduce<double>(
                         kN, cost::kStream, 0.0,
                         [&](std::size_t i0, std::size_t i1, double acc) {
                           for (std::size_t i = i0; i < i1; ++i) {
                             acc += x.data()[i] * y.data()[i];
                           }
                           return acc;
                         },
                         [](double p, double q) { return p + q; }));
                   }});
  cases.push_back({"sum_to_rows",
                   [=] { return bytes_of(sum_to(x, {1, 125})); }});
  cases.push_back({"matmul", [=] { return bytes_of(matmul(a, b)); }});
  cases.push_back({"matmul_tn", [=] { return bytes_of(matmul_tn(at, b)); }});
  cases.push_back({"matmul_nt", [=] { return bytes_of(matmul_nt(a, bt)); }});

  const std::vector<float> xf = to_f32(x), yf = to_f32(y), rowf = to_f32(row),
                           wf = to_f32(w), row_wf = to_f32(row_w),
                           af = to_f32(a), atf = to_f32(at), bf = to_f32(b),
                           btf = to_f32(bt);
  const auto out = [](std::size_t n,
                      const std::function<void(float*)>& fill) {
    std::vector<float> o(n);
    fill(o.data());
    return bytes_of(o.data(), n);
  };
  cases.push_back({"f32 add", [=] {
                     return out(kN, [&](float* o) {
                       kernels_f32::bin_same(simd::kAdd, xf.data(), yf.data(),
                                             o, kN);
                     });
                   }});
  cases.push_back({"f32 tanh", [=] {
                     return out(kN, [&](float* o) {
                       kernels_f32::tanh(xf.data(), o, kN);
                     });
                   }});
  cases.push_back({"f32 add row", [=] {
                     return out(kN, [&](float* o) {
                       kernels_f32::bin_row(simd::kAdd, xf.data(), rowf.data(),
                                            o, kRows, kCols);
                     });
                   }});
  cases.push_back({"f32 bias_tanh", [=] {
                     return out(kN, [&](float* o) {
                       kernels_f32::bias_tanh(xf.data(), rowf.data(), o, kRows,
                                              kCols);
                     });
                   }});
  cases.push_back({"f32 bias_sin", [=] {
                     return out(kN, [&](float* o) {
                       kernels_f32::bias_sin(xf.data(), rowf.data(), o, kRows,
                                             kCols);
                     });
                   }});
  cases.push_back({"f32 sum", [=] {
                     return bytes_of(kernels_f32::sum(xf.data(), kN));
                   }});
  cases.push_back({"f32 dot", [=] {
                     return bytes_of(exec::dot(xf.data(), yf.data(), kN));
                   }});
  cases.push_back({"f32 square_sum", [=] {
                     return bytes_of(kernels_f32::square_sum(xf.data(), kN));
                   }});
  cases.push_back({"f32 weighted_square_sum", [=] {
                     return bytes_of(kernels_f32::weighted_square_sum(
                         wf.data(), xf.data(), kN));
                   }});
  cases.push_back({"f32 weighted_square_sum_rows", [=] {
                     return bytes_of(kernels_f32::weighted_square_sum_rows(
                         row_wf.data(), xf.data(), kRows, kCols));
                   }});
  cases.push_back({"f32 sum_to_rows", [=] {
                     return out(kCols, [&](float* o) {
                       kernels_f32::sum_to_rows(xf.data(), o, kRows, kCols);
                     });
                   }});
  cases.push_back({"f32 matmul", [=] {
                     return out(kN_ * kM, [&](float* o) {
                       kernels_f32::matmul(af.data(), bf.data(), o, kN_, kK,
                                           kM);
                     });
                   }});
  cases.push_back({"f32 matmul_tn", [=] {
                     return out(kN_ * kM, [&](float* o) {
                       exec::matmul_tn(atf.data(), bf.data(), o, kN_, kK, kM);
                     });
                   }});
  cases.push_back({"f32 matmul_nt", [=] {
                     return out(kN_ * kM, [&](float* o) {
                       exec::matmul_nt(af.data(), btf.data(), o, kN_, kK, kM);
                     });
                   }});
  cases.push_back({"downcast", [=] { return bytes_of(to_f32(x).data(), kN); }});
  cases.push_back({"upcast", [=] {
                     std::vector<double> o(kN);
                     kernels_f32::upcast(o.data(), xf.data(), kN);
                     return bytes_of(o.data(), kN);
                   }});
  return cases;
}

// The policy only moves chunks between the workers and the calling thread:
// each family gives the same bytes dispatched (top level) as inline
// (called from inside a pool chunk, where every chunk runs on one thread).
TEST(DispatchPolicy, DispatchedAndInlineRunsMatchBitForBit) {
  set_global_threads(4);
  for (const ChunkedCase& c : dispatched_cases()) {
    std::vector<unsigned char> want;
    EXPECT_GT(tasks_during([&] { want = c.run(); }), 0u)
        << c.kernel << " should dispatch at top level";
    for (const std::size_t host : {std::size_t{0}, std::size_t{3}}) {
      std::vector<unsigned char> got;
      EXPECT_EQ(tasks_during([&] {
                  global_pool().for_each_chunk(
                      4, [&](std::size_t chunk, std::size_t, std::size_t) {
                        if (chunk == host) got = c.run();
                      });
                }),
                3u)
          << c.kernel << " dispatched from inside a pool chunk";
      ASSERT_EQ(got.size(), want.size()) << c.kernel;
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
          << c.kernel << " inline inside chunk " << host;
    }
  }
  set_global_threads(default_num_threads());
}

// ---- transposed matmuls against a materialized transpose ------------------

/// exec::matmul_nt(a, b) and exec::matmul_tn(c, d) against exec::matmul
/// on a copied transpose, compared bytewise; a [n,k], b [m,k], c [k,n],
/// d [k,m].
template <class T>
void expect_transposed_matmuls_exact(const T* a, const T* b, const T* c,
                                     const T* d, std::int64_t n,
                                     std::int64_t k, std::int64_t m,
                                     const std::string& at) {
  std::vector<T> bt(static_cast<std::size_t>(m * k));
  std::vector<T> ct(static_cast<std::size_t>(k * n));
  std::vector<T> got(static_cast<std::size_t>(n * m));
  std::vector<T> want(got.size());
  exec::transpose(b, bt.data(), m, k);
  exec::transpose(c, ct.data(), k, n);
  exec::matmul_nt(a, b, got.data(), n, k, m);
  exec::matmul(a, bt.data(), want.data(), n, k, m);
  EXPECT_EQ(bytes_of(got.data(), got.size()),
            bytes_of(want.data(), want.size()))
      << "matmul_nt " << at;
  exec::matmul_tn(c, d, got.data(), n, k, m);
  exec::matmul(ct.data(), d, want.data(), n, k, m);
  EXPECT_EQ(bytes_of(got.data(), got.size()),
            bytes_of(want.data(), want.size()))
      << "matmul_tn " << at;
}

// The contract autodiff's matmul backward rests on: matmul_nt(a, b) is
// matmul(a, transpose(b)) and matmul_tn(a, b) is matmul(transpose(a), b)
// to the last bit, under every table, fp64 and fp32, at 1 and 4 threads.
// n = 225 leaves a row fringe under every chunk partition, m = 2 and 62
// leave column fringes, and k = 513 and 900 run past the kMmPackK panel
// depth.
TEST(Kernels, TransposedMatmulsMatchMaterializedTransposeBitForBit) {
  const simd::Isa original = simd::active_isa();
  const std::int64_t n = 225;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    for (const simd::Isa isa : simd::available_isas()) {
      ASSERT_TRUE(simd::force_isa(isa));
      for (const std::int64_t m : {2, 62, 64}) {
        for (const std::int64_t k : {2, 64, 513, 900}) {
          const std::string at = std::string(simd::isa_name(isa)) + " " +
                                 std::to_string(threads) + "t n=225 k=" +
                                 std::to_string(k) +
                                 " m=" + std::to_string(m);
          const Tensor a = random({n, k}, 970);
          const Tensor b = random({m, k}, 971);
          const Tensor c = random({k, n}, 972);
          const Tensor d = random({k, m}, 973);
          EXPECT_EQ(bytes_of(matmul_nt(a, b)),
                    bytes_of(matmul(a, transpose(b))))
              << "matmul_nt " << at;
          EXPECT_EQ(bytes_of(matmul_tn(c, d)),
                    bytes_of(matmul(transpose(c), d)))
              << "matmul_tn " << at;
          expect_transposed_matmuls_exact(
              to_f32(a).data(), to_f32(b).data(), to_f32(c).data(),
              to_f32(d).data(), n, k, m, "f32 " + at);
        }
      }
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
  set_global_threads(default_num_threads());
}

/// The table's row micro-kernels on rows [i0, i1) of pre-zeroed outputs:
/// matmul_nt_rows / matmul_tn_rows against matmul_rows on a transpose.
template <class T>
void expect_transposed_row_kernels_exact(const std::vector<T>& a,
                                         const std::vector<T>& b,
                                         std::int64_t n, std::int64_t k,
                                         std::int64_t m, std::int64_t i0,
                                         std::int64_t i1,
                                         const std::string& at) {
  const simd::KernelTableT<T>& t = simd::table<T>();
  std::vector<T> a_t(static_cast<std::size_t>(k * n));
  std::vector<T> b_t(static_cast<std::size_t>(m * k));
  exec::transpose(a.data(), a_t.data(), n, k);
  exec::transpose(b.data(), b_t.data(), m, k);
  std::vector<T> got(static_cast<std::size_t>(n * m), T{0});
  std::vector<T> want(got.size(), T{0});
  t.matmul_nt_rows(a.data(), b.data(), got.data(), i0, i1, k, m);
  t.matmul_rows(a.data(), b_t.data(), want.data(), i0, i1, k, m);
  EXPECT_EQ(bytes_of(got.data(), got.size()),
            bytes_of(want.data(), want.size()))
      << "matmul_nt_rows " << at;
  std::fill(got.begin(), got.end(), T{0});
  // tn on the transposed operands computes the same a * b^T.
  t.matmul_tn_rows(a_t.data(), b_t.data(), got.data(), i0, i1, k, n, m);
  EXPECT_EQ(bytes_of(got.data(), got.size()),
            bytes_of(want.data(), want.size()))
      << "matmul_tn_rows " << at;
}

// A pool chunk hands the micro-kernels a row range whose start need not
// sit on the kMmRowTile grid, which shifts which rows form full tiles.
TEST(Kernels, TransposedMatmulRowRangesMatchMaterializedTransposeBitForBit) {
  const simd::Isa original = simd::active_isa();
  const std::int64_t n = 225;
  const std::int64_t m = 62;
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const std::int64_t k : {64, 513}) {
      const Tensor a = random({n, k}, 974);
      const Tensor b = random({m, k}, 975);
      const std::vector<double> a64(a.data(), a.data() + a.numel());
      const std::vector<double> b64(b.data(), b.data() + b.numel());
      for (const auto& [i0, i1] :
           {std::pair<std::int64_t, std::int64_t>{1, 225}, {3, 114}, {5, 7},
            {113, 225}}) {
        const std::string at = std::string(simd::isa_name(isa)) + " k=" +
                               std::to_string(k) + " rows [" +
                               std::to_string(i0) + ", " +
                               std::to_string(i1) + ")";
        expect_transposed_row_kernels_exact(a64, b64, n, k, m, i0, i1, at);
        expect_transposed_row_kernels_exact(to_f32(a), to_f32(b), n, k, m,
                                            i0, i1, "f32 " + at);
      }
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
}

}  // namespace
}  // namespace qpinn::kernels
