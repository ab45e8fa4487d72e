// SIMD dispatch layer: every selectable variant must agree with the scalar
// table. Elementwise, in-place, and Adam kernels are bit-identical by
// contract (same operations in the same order, fringes use the same scalar
// expressions); reductions and matmuls reassociate and are compared with a
// tolerance. Lengths straddle the vector width (1, w-1, w, w+1), a
// non-multiple mid size, and a large size, on deliberately unaligned
// pointers — the kernels must not assume alignment.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <type_traits>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qpinn::simd {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restores the pre-test table even when an assertion fails mid-test.
struct IsaGuard {
  Isa saved = active_isa();
  ~IsaGuard() { force_isa(saved); }
};

std::vector<std::size_t> test_lengths(std::size_t width) {
  std::vector<std::size_t> lengths{1, width, width + 1, 255, 65537};
  if (width > 1) lengths.push_back(width - 1);
  return lengths;
}

/// Unaligned views: the vectors get one extra slot and the kernels run on
/// data() + 1, which is misaligned for any register wider than a double.
std::vector<double> filled(std::size_t n, std::uint64_t seed, double lo,
                           double hi) {
  Rng rng(seed);
  std::vector<double> v(n + 1);
  for (double& x : v) x = lo + (hi - lo) * rng.uniform();
  return v;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdDispatch, ActiveTableIsSelectableAndNamed) {
  const std::vector<Isa> isas = available_isas();
  ASSERT_FALSE(isas.empty());
  // The scalar fallback is always selectable and always last (best first).
  EXPECT_EQ(isas.back(), Isa::kScalar);
  bool found = false;
  for (Isa isa : isas) found = found || isa == active_isa();
  EXPECT_TRUE(found) << "active ISA not in available_isas()";
  EXPECT_STREQ(active().name, isa_name(active_isa()));
  EXPECT_GE(active().width, 1u);
}

TEST(SimdDispatch, ParseIsaAcceptsTheDocumentedNames) {
  EXPECT_EQ(parse_isa("off"), Isa::kScalar);
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("SSE2"), Isa::kSse2);
  EXPECT_EQ(parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(parse_isa("neon"), Isa::kNeon);
  EXPECT_THROW(parse_isa("avx512"), ConfigError);
  EXPECT_THROW(parse_isa(""), ConfigError);
}

TEST(SimdDispatch, ForceIsaSwitchesAndRejectsUnavailable) {
  IsaGuard guard;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    EXPECT_EQ(active_isa(), isa);
    EXPECT_EQ(active().isa, isa);
  }
  // At most one of AVX2/NEON exists on any one machine; the other must be
  // rejected without disturbing the active table.
  const Isa before = active_isa();
  bool avx2 = false, neon = false;
  for (Isa isa : available_isas()) {
    avx2 = avx2 || isa == Isa::kAvx2;
    neon = neon || isa == Isa::kNeon;
  }
  if (!avx2) {
    EXPECT_FALSE(force_isa(Isa::kAvx2));
  }
  if (!neon) {
    EXPECT_FALSE(force_isa(Isa::kNeon));
  }
  EXPECT_EQ(active_isa(), before);
}

// ---- table-level equivalence against the scalar reference ----------------

class SimdVariantP : public ::testing::TestWithParam<Isa> {
 protected:
  const KernelTable& variant() {
    force_isa(GetParam());
    return active();
  }
  const KernelTable& scalar() {
    force_isa(Isa::kScalar);
    return active();
  }
  IsaGuard guard_;
};

TEST_P(SimdVariantP, ElementwiseKernelsAreBitIdenticalToScalar) {
  const KernelTable& var = variant();
  for (std::size_t n : test_lengths(var.width)) {
    const std::vector<double> a = filled(n, 11 + n, -2.0, 2.0);
    const std::vector<double> b = filled(n, 23 + n, 0.5, 2.5);
    std::vector<double> got(n + 1), want(n + 1);
    for (int op = 0; op < kNumBinOps; ++op) {
      variant().bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
      scalar().bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
      for (std::size_t i = 1; i <= n; ++i) {
        ASSERT_TRUE(bit_equal(got[i], want[i]))
            << "bin op " << op << " n " << n << " lane " << i;
      }
    }
    using Unary = void (*)(const double*, double*, std::size_t);
    const std::pair<Unary, Unary> unaries[] = {
        {variant().neg, scalar().neg},
        {variant().square, scalar().square},
        {variant().reciprocal, scalar().reciprocal},
        {variant().sqrt, scalar().sqrt},
        {variant().abs, scalar().abs},
        {variant().relu, scalar().relu},
        {variant().step, scalar().step},
        {variant().sign, scalar().sign},
    };
    for (const auto& [v_fn, s_fn] : unaries) {
      v_fn(a.data() + 1, got.data() + 1, n);
      s_fn(a.data() + 1, want.data() + 1, n);
      for (std::size_t i = 1; i <= n; ++i) {
        ASSERT_TRUE(bit_equal(got[i], want[i])) << "n " << n << " lane " << i;
      }
    }
    variant().scale(a.data() + 1, -1.75, got.data() + 1, n);
    scalar().scale(a.data() + 1, -1.75, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) ASSERT_TRUE(bit_equal(got[i], want[i]));
    variant().add_scalar(a.data() + 1, 0.75, got.data() + 1, n);
    scalar().add_scalar(a.data() + 1, 0.75, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) ASSERT_TRUE(bit_equal(got[i], want[i]));
  }
}

TEST_P(SimdVariantP, StreamingStoreSweepIsBitIdenticalToScalar) {
  // Sweeps above detail::kStreamMinElems take the non-temporal store path
  // (scalar peel to the store alignment, NT body, scalar fringe). The odd
  // length plus the +1 pointer offset exercises both edges; the values
  // must be bit-identical to the plain path regardless.
  const std::size_t n = detail::kStreamMinElems + 7;
  const std::vector<double> a = filled(n, 101, -2.0, 2.0);
  const std::vector<double> b = filled(n, 103, 0.5, 2.5);
  std::vector<double> got(n + 1), want(n + 1);
  for (int op = 0; op < kNumBinOps; ++op) {
    variant().bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
    scalar().bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(bit_equal(got[i], want[i])) << "bin op " << op << " lane "
                                              << i;
    }
  }
}

TEST_P(SimdVariantP, RowBroadcastMatchesScalar) {
  const KernelTable& var = variant();
  for (std::size_t cols : test_lengths(var.width)) {
    if (cols > 1024) continue;  // keep the matrix small
    const std::size_t rows = 3;
    const std::vector<double> a = filled(rows * cols, 31, -2.0, 2.0);
    const std::vector<double> b = filled(cols, 37, 0.5, 2.5);
    std::vector<double> got(rows * cols + 1), want(rows * cols + 1);
    for (int op = 0; op < kNumBinOps; ++op) {
      variant().bin_row[op](a.data() + 1, b.data() + 1, got.data() + 1, rows,
                            cols);
      scalar().bin_row[op](a.data() + 1, b.data() + 1, want.data() + 1, rows,
                           cols);
      for (std::size_t i = 1; i <= rows * cols; ++i) {
        ASSERT_TRUE(bit_equal(got[i], want[i]))
            << "row op " << op << " cols " << cols << " lane " << i;
      }
    }
  }
}

TEST_P(SimdVariantP, InplaceAndAdamKernelsAreBitIdenticalToScalar) {
  const KernelTable& var = variant();
  AdamParams cfg;
  cfg.lr = 1e-3;
  cfg.beta1 = 0.9;
  cfg.beta2 = 0.999;
  cfg.eps = 1e-8;
  cfg.weight_decay = 0.01;
  cfg.bias_corr1 = 0.1;
  cfg.bias_corr2 = 0.001;
  for (std::size_t n : test_lengths(var.width)) {
    const std::vector<double> src = filled(n, 41 + n, -2.0, 2.0);
    std::vector<double> got = filled(n, 43 + n, -2.0, 2.0);
    std::vector<double> want = got;

    variant().axpy(got.data() + 1, 0.5, src.data() + 1, n);
    scalar().axpy(want.data() + 1, 0.5, src.data() + 1, n);
    variant().scale_inplace(got.data() + 1, 0.9, n);
    scalar().scale_inplace(want.data() + 1, 0.9, n);
    variant().axpby(got.data() + 1, 0.9, 0.1, src.data() + 1, n);
    scalar().axpby(want.data() + 1, 0.9, 0.1, src.data() + 1, n);
    variant().acc_add(got.data() + 1, src.data() + 1, n);
    scalar().acc_add(want.data() + 1, src.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(bit_equal(got[i], want[i])) << "n " << n << " lane " << i;
    }

    for (bool decoupled : {false, true}) {
      cfg.decoupled = decoupled;
      std::vector<double> pv = filled(n, 47 + n, -1.0, 1.0);
      std::vector<double> ps = pv;
      const std::vector<double> g = filled(n, 53 + n, -1.0, 1.0);
      std::vector<double> mv = filled(n, 59 + n, -0.1, 0.1);
      std::vector<double> ms = mv;
      std::vector<double> vv = filled(n, 61 + n, 0.0, 0.1);
      std::vector<double> vs = vv;
      variant().adam(pv.data() + 1, g.data() + 1, mv.data() + 1,
                     vv.data() + 1, n, cfg);
      scalar().adam(ps.data() + 1, g.data() + 1, ms.data() + 1,
                    vs.data() + 1, n, cfg);
      for (std::size_t i = 1; i <= n; ++i) {
        ASSERT_TRUE(bit_equal(pv[i], ps[i])) << "param lane " << i;
        ASSERT_TRUE(bit_equal(mv[i], ms[i])) << "m lane " << i;
        ASSERT_TRUE(bit_equal(vv[i], vs[i])) << "v lane " << i;
      }
    }
  }
}

TEST_P(SimdVariantP, ReductionsMatchScalarWithinReassociationTolerance) {
  const KernelTable& var = variant();
  for (std::size_t n : test_lengths(var.width)) {
    const std::vector<double> a = filled(n, 67 + n, -2.0, 2.0);
    const std::vector<double> b = filled(n, 71 + n, -2.0, 2.0);
    const std::vector<double> w = filled(n, 73 + n, 0.0, 1.0);
    const double tol = 1e-12 * static_cast<double>(n);
    EXPECT_NEAR(variant().dot(a.data() + 1, b.data() + 1, n),
                scalar().dot(a.data() + 1, b.data() + 1, n), tol);
    EXPECT_NEAR(variant().sum(a.data() + 1, n), scalar().sum(a.data() + 1, n),
                tol);
    EXPECT_NEAR(variant().square_sum(a.data() + 1, n),
                scalar().square_sum(a.data() + 1, n), tol);
    EXPECT_NEAR(variant().weighted_square_sum(w.data() + 1, a.data() + 1, n),
                scalar().weighted_square_sum(w.data() + 1, a.data() + 1, n),
                tol);
  }
}

TEST_P(SimdVariantP, MatmulMicroKernelsMatchScalarWithinTolerance) {
  // Odd sizes so every tile path (full column tiles, fringe columns,
  // leftover rows) runs.
  const std::int64_t n = 7, k = 9, m = 13;
  const std::vector<double> a = filled(static_cast<std::size_t>(n * k), 79,
                                       -1.0, 1.0);
  const std::vector<double> at = filled(static_cast<std::size_t>(k * n), 83,
                                        -1.0, 1.0);
  const std::vector<double> b = filled(static_cast<std::size_t>(k * m), 89,
                                       -1.0, 1.0);
  const std::vector<double> bt = filled(static_cast<std::size_t>(m * k), 97,
                                        -1.0, 1.0);
  const std::size_t out_n = static_cast<std::size_t>(n * m);
  std::vector<double> got(out_n + 1), want(out_n + 1);

  const auto check = [&](const char* what) {
    for (std::size_t i = 1; i <= out_n; ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-12) << what << " lane " << i;
    }
  };
  std::fill(got.begin(), got.end(), 0.0);
  std::fill(want.begin(), want.end(), 0.0);
  variant().matmul_rows(a.data() + 1, b.data() + 1, got.data() + 1, 0, n, k,
                        m);
  scalar().matmul_rows(a.data() + 1, b.data() + 1, want.data() + 1, 0, n, k,
                       m);
  check("matmul");
  std::fill(got.begin(), got.end(), 0.0);
  std::fill(want.begin(), want.end(), 0.0);
  variant().matmul_tn_rows(at.data() + 1, b.data() + 1, got.data() + 1, 0, n,
                           k, n, m);
  scalar().matmul_tn_rows(at.data() + 1, b.data() + 1, want.data() + 1, 0, n,
                          k, n, m);
  check("matmul_tn");
  std::fill(got.begin(), got.end(), 0.0);
  std::fill(want.begin(), want.end(), 0.0);
  variant().matmul_nt_rows(a.data() + 1, bt.data() + 1, got.data() + 1, 0, n,
                           k, m);
  scalar().matmul_nt_rows(a.data() + 1, bt.data() + 1, want.data() + 1, 0, n,
                          k, m);
  check("matmul_nt");
}

TEST_P(SimdVariantP, NanAndInfPropagateLikeScalar) {
  const KernelTable& var = variant();
  const std::size_t n = var.width * 2 + 1;
  std::vector<double> a(n + 1, 1.0), b(n + 1, 2.0);
  a[1] = kNan;
  a[2] = kInf;
  b[2] = -kInf;
  a[3] = 0.0;
  b[3] = kNan;  // 0 * NaN must stay NaN — max-based tricks would lose it
  std::vector<double> got(n + 1), want(n + 1);
  for (int op = 0; op < kNumBinOps; ++op) {
    variant().bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
    scalar().bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(bit_equal(got[i], want[i]))
          << "bin op " << op << " lane " << i;
    }
  }
  EXPECT_TRUE(std::isnan(got[1]));  // NaN + finite
  variant().bin_same[kMul](a.data() + 1, b.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[3])) << "0 * NaN was dropped";

  // relu/step/sign: comparisons with NaN are false, so NaN maps to 0 in
  // every variant (same as the scalar ternary).
  using Unary = void (*)(const double*, double*, std::size_t);
  for (Unary v_fn : {var.relu, var.step, var.sign}) {
    v_fn(a.data() + 1, got.data() + 1, n);
    EXPECT_TRUE(bit_equal(got[1], 0.0));
  }
  variant().neg(a.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[1]));
  EXPECT_EQ(got[2], -kInf);
}

TEST_P(SimdVariantP, F32NanAndInfPropagateLikeScalar) {
  // The fp32 tables carry the same IEEE propagation contract as the fp64
  // ones: mixed-precision replay must surface a NaN/Inf produced inside an
  // fp32 sweep instead of laundering it — the trainer's divergence
  // detection reads the upcast results.
  constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInfF = std::numeric_limits<float>::infinity();
  force_isa(GetParam());
  const KernelTableF& var = active_f32();
  const std::size_t n = var.width * 2 + 1;
  std::vector<float> a(n + 1, 1.0f), b(n + 1, 2.0f);
  a[1] = kNanF;
  a[2] = kInfF;
  b[2] = -kInfF;
  a[3] = 0.0f;
  b[3] = kNanF;  // 0 * NaN must stay NaN — max-based tricks would lose it
  std::vector<float> got(n + 1), want(n + 1);
  force_isa(Isa::kScalar);
  const KernelTableF& ref = active_f32();
  force_isa(GetParam());
  for (int op = 0; op < kNumBinOps; ++op) {
    var.bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
    ref.bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(std::memcmp(&got[i], &want[i], sizeof(float)) == 0)
          << "f32 bin op " << op << " lane " << i;
    }
  }
  EXPECT_TRUE(std::isnan(got[1]));  // NaN + finite
  var.bin_same[kMul](a.data() + 1, b.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[3])) << "f32 0 * NaN was dropped";
  var.bin_same[kAdd](a.data() + 1, b.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[2])) << "f32 inf + -inf must be NaN";

  // Unary edge semantics mirror the fp64 table: comparisons with NaN are
  // false, so relu/step/sign map NaN to 0; neg and tanh propagate.
  using UnaryF = void (*)(const float*, float*, std::size_t);
  for (UnaryF v_fn : {var.relu, var.step, var.sign}) {
    v_fn(a.data() + 1, got.data() + 1, n);
    EXPECT_EQ(got[1], 0.0f);
  }
  var.neg(a.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[1]));
  EXPECT_EQ(got[2], -kInfF);
  var.tanh(a.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[1]));
  EXPECT_EQ(got[2], 1.0f);

  // Reductions accumulate in double but must still propagate: a NaN lane
  // poisons the fp64 accumulator exactly as in the fp64 tables.
  EXPECT_TRUE(std::isnan(var.sum(a.data() + 1, n)));
  EXPECT_TRUE(std::isnan(var.square_sum(b.data() + 1, n)));
}

TEST_P(SimdVariantP, TanhIsBitIdenticalToScalarAndNearLibm) {
  const KernelTable& var = variant();
  // Dense sweep across the interesting ranges: around zero, the Taylor
  // cutoff at |2x| = 0.5, the saturation threshold 19.0625, and beyond.
  std::vector<double> xs;
  for (int i = -400; i <= 400; ++i) xs.push_back(0.05 * i);
  for (double x : {1e-320, 1e-30, 0.2499, 0.25, 0.2501, 19.0624, 19.0625,
                   19.0626, 700.0}) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  xs.insert(xs.end(), {0.0, -0.0, kNan, kInf, -kInf});
  const std::size_t n = xs.size();
  std::vector<double> got(n), want(n);
  var.tanh(xs.data(), got.data(), n);
  scalar().tanh(xs.data(), want.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(bit_equal(got[i], want[i]))
        << "tanh(" << xs[i] << ") differs from the scalar variant";
    if (std::isfinite(xs[i])) {
      // Accuracy: a few ulp of libm everywhere (|tanh| <= 1, so absolute
      // tolerance is also relative tolerance).
      EXPECT_NEAR(got[i], std::tanh(xs[i]), 5e-15) << "x = " << xs[i];
    }
  }
  // Edge semantics: NaN propagates; +-inf and saturated inputs hit +-1
  // exactly; signed zero and tiny inputs come back unchanged.
  const auto at = [&](double x) {
    double out;
    var.tanh(&x, &out, 1);
    return out;
  };
  EXPECT_TRUE(std::isnan(at(kNan)));
  EXPECT_EQ(at(kInf), 1.0);
  EXPECT_EQ(at(-kInf), -1.0);
  EXPECT_EQ(at(20.0), 1.0);
  EXPECT_EQ(at(-20.0), -1.0);
  EXPECT_TRUE(bit_equal(at(0.0), 0.0));
  EXPECT_TRUE(bit_equal(at(-0.0), -0.0));
  EXPECT_EQ(at(1e-320), 1e-320);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, SimdVariantP,
                         ::testing::ValuesIn(available_isas()),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return isa_name(info.param);
                         });

// ---- tensor-level kernels under every variant ----------------------------

TEST(SimdKernels, FusedKernelsMatchTheirCompositionUnderEveryVariant) {
  IsaGuard guard;
  Rng rng(20260806);
  const Tensor a = Tensor::rand({5, 7}, rng, -2.0, 2.0);
  const Tensor bias = Tensor::rand({1, 7}, rng, -1.0, 1.0);
  const Tensor w_same = Tensor::rand({5, 7}, rng, 0.0, 1.0);
  const Tensor w_col = Tensor::rand({5, 1}, rng, 0.0, 1.0);
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    const Tensor bt = kernels::bias_tanh(a, bias);
    const Tensor bs = kernels::bias_sin(a, bias);
    const Tensor plain = kernels::add(a, bias);
    // bias_tanh must agree bitwise with the unfused tanh(add(..)) chain
    // (both use the same polynomial kernel) and stay within a few ulp of
    // libm; bias_sin still goes through std::sin exactly.
    const Tensor tanh_chain = kernels::tanh(plain);
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_EQ(bt[i], tanh_chain[i]) << isa_name(isa);
      EXPECT_NEAR(bt[i], std::tanh(plain[i]), 5e-15) << isa_name(isa);
      EXPECT_DOUBLE_EQ(bs[i], std::sin(plain[i])) << isa_name(isa);
    }
    EXPECT_NEAR(kernels::square_sum_all(a)[0],
                kernels::sum_all(kernels::mul(a, a))[0], 1e-12);
    EXPECT_NEAR(kernels::weighted_square_sum_all(w_same, a)[0],
                kernels::sum_all(kernels::mul(w_same, kernels::mul(a, a)))[0],
                1e-12);
    // (N,1) weights against (N,C): per-row weight times the row's square sum.
    double want = 0.0;
    for (std::int64_t r = 0; r < a.rows(); ++r) {
      for (std::int64_t c = 0; c < a.cols(); ++c) {
        want += w_col[r] * a[r * a.cols() + c] * a[r * a.cols() + c];
      }
    }
    EXPECT_NEAR(kernels::weighted_square_sum_all(w_col, a)[0], want, 1e-12);

    Tensor dst = a.clone();
    kernels::axpby_inplace(dst, 0.9, 0.1, w_same);
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_DOUBLE_EQ(dst[i], 0.9 * a[i] + 0.1 * w_same[i]);
    }

    // tanh_grad must agree bitwise with the composition it replaces in
    // optimized plans: mul(g, add_scalar(neg(square(t)), 1.0)). The fused
    // kernel performs the identical IEEE op sequence (no FMA), so this is
    // EXPECT_EQ, not NEAR — the plan optimizer's bit-identity contract
    // depends on it.
    const Tensor tg = kernels::tanh_grad(w_same, a);
    const Tensor tg_chain = kernels::mul(
        w_same, kernels::add_scalar(kernels::neg(kernels::square(a)), 1.0));
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_EQ(tg[i], tg_chain[i]) << isa_name(isa);
    }
  }
}

TEST(SimdKernels, FusedAdamMatchesTheUnfusedUpdate) {
  IsaGuard guard;
  Rng rng(7);
  const std::int64_t n = 130;  // not a multiple of any vector width
  kernels::AdamStepConfig cfg;
  cfg.lr = 1e-3;
  cfg.beta1 = 0.9;
  cfg.beta2 = 0.999;
  cfg.eps = 1e-8;
  cfg.weight_decay = 0.01;
  cfg.bias_corr1 = 1.0 - cfg.beta1;
  cfg.bias_corr2 = 1.0 - cfg.beta2;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    for (bool decoupled : {false, true}) {
      cfg.decoupled = decoupled;
      Rng local(99);
      Tensor p = Tensor::rand({n}, local, -1.0, 1.0);
      const Tensor p0 = p.clone();
      const Tensor g = Tensor::rand({n}, local, -1.0, 1.0);
      Tensor m = Tensor::zeros({n});
      Tensor v = Tensor::zeros({n});
      kernels::adam_step_inplace(p, g, m, v, cfg);
      for (std::int64_t i = 0; i < n; ++i) {
        double gi = g[i];
        double pi = p0[i];
        if (!decoupled) gi += cfg.weight_decay * pi;
        const double mi = cfg.beta1 * 0.0 + (1.0 - cfg.beta1) * gi;
        const double vi = cfg.beta2 * 0.0 + (1.0 - cfg.beta2) * (gi * gi);
        ASSERT_NEAR(m[i], mi, 1e-15);
        ASSERT_NEAR(v[i], vi, 1e-15);
        const double mhat = mi / cfg.bias_corr1;
        const double vhat = vi / cfg.bias_corr2;
        double update = mhat / (std::sqrt(vhat) + cfg.eps);
        if (decoupled) update += cfg.weight_decay * pi;
        ASSERT_NEAR(p[i], pi - cfg.lr * update, 1e-14)
            << isa_name(isa) << " lane " << i;
      }
    }
  }
}

TEST(SimdKernels, TrainingKernelsAgreeAcrossVariantsOnOddShapes) {
  // End-to-end: the tensor-level entry points (which chunk via the thread
  // pool before hitting the table) agree across variants on shapes that
  // exercise fringes.
  IsaGuard guard;
  Rng rng(12345);
  const Tensor a = Tensor::rand({13, 17}, rng, -2.0, 2.0);
  const Tensor b = Tensor::rand({13, 17}, rng, 0.5, 2.5);
  const Tensor mm_b = Tensor::rand({17, 11}, rng, -1.0, 1.0);

  ASSERT_TRUE(force_isa(Isa::kScalar));
  const Tensor add_ref = kernels::add(a, b);
  const Tensor div_ref = kernels::div(a, b);
  const Tensor mm_ref = kernels::matmul(a, mm_b);
  const double dot_ref = kernels::dot(a, b);

  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    const Tensor add_v = kernels::add(a, b);
    const Tensor div_v = kernels::div(a, b);
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      ASSERT_DOUBLE_EQ(add_v[i], add_ref[i]) << isa_name(isa);
      ASSERT_DOUBLE_EQ(div_v[i], div_ref[i]) << isa_name(isa);
    }
    const Tensor mm_v = kernels::matmul(a, mm_b);
    for (std::int64_t i = 0; i < mm_ref.numel(); ++i) {
      ASSERT_NEAR(mm_v[i], mm_ref[i], 1e-12) << isa_name(isa);
    }
    ASSERT_NEAR(kernels::dot(a, b), dot_ref, 1e-10) << isa_name(isa);
  }
}

// ---- polynomial sin/cos --------------------------------------------------

template <class T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Arguments for the sin/cos sweeps: log-spread magnitudes up to `hi`
/// with random signs, so every quadrant and exponent range is covered.
template <class T>
std::vector<T> sincos_args(std::size_t n, std::uint64_t seed, double hi) {
  Rng rng(seed);
  std::vector<T> xs(n);
  for (T& x : xs) {
    const double mag = std::pow(hi, rng.uniform()) - 1.0 + rng.uniform();
    x = static_cast<T>(rng.uniform() < 0.5 ? -mag : mag);
  }
  return xs;
}

/// Distance in units in the last place (both finite, same sign or tiny).
template <class T>
std::int64_t ulp_distance(T a, T b) {
  using Bits = std::conditional_t<sizeof(T) == 8, std::int64_t, std::int32_t>;
  const auto ordered = [](T v) {
    Bits bits;
    std::memcpy(&bits, &v, sizeof(T));
    return bits < 0 ? std::numeric_limits<Bits>::min() - bits : bits;
  };
  const std::int64_t d = static_cast<std::int64_t>(ordered(a)) -
                         static_cast<std::int64_t>(ordered(b));
  return d < 0 ? -d : d;
}

template <class T>
void expect_sincos_partition_invariant() {
  // Reference: the scalar table over the whole array. Every other table,
  // and every (offset, length) window of it, must reproduce those bits:
  // the element's position relative to the vector body/fringe split is
  // exactly what a chunk boundary changes.
  std::vector<T> xs = sincos_args<T>(80, 71, 1e3);
  xs[9] = static_cast<T>(3e7);  // one lane past the reduction range
  const std::size_t n = xs.size();
  for (const bool want_cos : {false, true}) {
    ASSERT_TRUE(force_isa(Isa::kScalar));
    std::vector<T> ref(n);
    (want_cos ? table<T>().cos : table<T>().sin)(xs.data(), ref.data(), n);
    for (Isa isa : available_isas()) {
      ASSERT_TRUE(force_isa(isa));
      const auto fn = want_cos ? table<T>().cos : table<T>().sin;
      for (std::size_t offset : {0, 1, 2, 3, 5, 9}) {
        for (std::size_t len = 1; len <= 67 && offset + len <= n; ++len) {
          std::vector<T> got(n, T(7));
          fn(xs.data() + offset, got.data() + offset, len);
          for (std::size_t i = offset; i < offset + len; ++i) {
            ASSERT_TRUE(same_bits(got[i], ref[i]))
                << (want_cos ? "cos" : "sin") << " " << isa_name(isa)
                << " offset " << offset << " len " << len << " x "
                << xs[i];
          }
        }
      }
    }
  }
}

TEST(SimdSinCos, BitIdenticalAcrossTablesAndChunkPartitions) {
  IsaGuard guard;
  expect_sincos_partition_invariant<double>();
  expect_sincos_partition_invariant<float>();
}

TEST(SimdSinCos, Fp64StaysWithinTwoUlpOfLibm) {
  IsaGuard guard;
  const double hi = 1048576.0;  // 2^20
  std::vector<double> xs = sincos_args<double>(200000, 72, hi);
  // Near multiples of pi/2, where the reduction cancels the most.
  for (int j = 1; j <= 2000; ++j) {
    const double q = std::nextafter(0.5 * std::numbers::pi * j * 521.0, 0.0);
    xs.push_back(q);
    xs.push_back(-std::nextafter(q, 1e9));
  }
  const std::size_t n = xs.size();
  std::vector<double> s(n), c(n);
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    active().sin(xs.data(), s.data(), n);
    active().cos(xs.data(), c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(ulp_distance(s[i], std::sin(xs[i])), 2)
          << isa_name(isa) << " sin(" << xs[i] << ")";
      ASSERT_LE(ulp_distance(c[i], std::cos(xs[i])), 2)
          << isa_name(isa) << " cos(" << xs[i] << ")";
    }
  }
}

TEST(SimdSinCos, Fp32TracksTheFp64ResultWithinTheMixedTolerance) {
  // The lane tolerance KernelsF32.EveryDemotedExecutorTracks... applies
  // to every demoted executor: 1e-5 * max(1, |want|).
  IsaGuard guard;
  const std::vector<float> xs =
      sincos_args<float>(50000, 73, detail::SinCosTraits<float>::kMaxArg);
  const std::size_t n = xs.size();
  std::vector<float> s(n), c(n);
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    active_f32().sin(xs.data(), s.data(), n);
    active_f32().cos(xs.data(), c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = xs[i];
      ASSERT_NEAR(s[i], std::sin(x), 1e-5) << isa_name(isa) << " x " << x;
      ASSERT_NEAR(c[i], std::cos(x), 1e-5) << isa_name(isa) << " x " << x;
    }
  }
}

template <class T>
void expect_sincos_special_values() {
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T edge = detail::SinCosTraits<T>::kMaxArg;
  const T past = std::nextafter(edge, inf);
  // Wide lanes sit between ordinary ones so the vector body's fix-up has
  // to patch single lanes of a register.
  const std::vector<T> xs = {T(0.0),   T(-0.0), inf,       -inf,
                             nan,      T(1.0),  edge,      -edge,
                             past,     T(2.5),  T(-3e7),   T(0.5),
                             T(1e30),  T(-1.25), T(4e6),   T(3.0)};
  const std::size_t n = xs.size();
  std::vector<T> s(n), c(n);
  table<T>().sin(xs.data(), s.data(), n);
  table<T>().cos(xs.data(), c.data(), n);
  const std::string isa = isa_name(active_isa());
  EXPECT_TRUE(same_bits(s[0], T(0.0))) << isa;
  EXPECT_TRUE(same_bits(s[1], T(-0.0))) << isa;
  EXPECT_EQ(c[0], T(1.0)) << isa;
  EXPECT_EQ(c[1], T(1.0)) << isa;
  for (std::size_t i : {2, 3, 4}) {
    EXPECT_TRUE(std::isnan(s[i])) << isa << " lane " << i;
    EXPECT_TRUE(std::isnan(c[i])) << isa << " lane " << i;
  }
  for (std::size_t i = 5; i < n; ++i) {
    if (std::abs(xs[i]) > edge) {
      // Past the exact-reduction range: libm's bits, whatever the lane.
      EXPECT_TRUE(same_bits(s[i], static_cast<T>(std::sin(xs[i]))))
          << isa << " sin(" << xs[i] << ")";
      EXPECT_TRUE(same_bits(c[i], static_cast<T>(std::cos(xs[i]))))
          << isa << " cos(" << xs[i] << ")";
    } else {
      // At the edge of the range the polynomial path is still accurate.
      EXPECT_LE(ulp_distance(s[i], static_cast<T>(std::sin(xs[i]))), 2)
          << isa << " sin(" << xs[i] << ")";
      EXPECT_LE(ulp_distance(c[i], static_cast<T>(std::cos(xs[i]))), 2)
          << isa << " cos(" << xs[i] << ")";
    }
  }
}

TEST(SimdSinCos, SpecialValuesAreExactAndWideLanesTakeTheFixUp) {
  IsaGuard guard;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    expect_sincos_special_values<double>();
    expect_sincos_special_values<float>();
  }
}

template <class T>
void expect_bias_sin_is_row_add_then_sin() {
  const std::size_t rows = 5;
  for (std::size_t cols : {1, 3, 4, 7, 8, 9, 19, 64}) {
    std::vector<T> a = sincos_args<T>(rows * cols, 74 + cols, 50.0);
    const std::vector<T> b = sincos_args<T>(cols, 75 + cols, 5.0);
    a[rows * cols / 2] = static_cast<T>(5e7);  // a wide lane
    std::vector<T> fused(rows * cols), sum(rows * cols), chain(rows * cols);
    table<T>().bias_sin(a.data(), b.data(), fused.data(), rows, cols);
    table<T>().bin_row[kAdd](a.data(), b.data(), sum.data(), rows, cols);
    table<T>().sin(sum.data(), chain.data(), rows * cols);
    for (std::size_t i = 0; i < rows * cols; ++i) {
      ASSERT_TRUE(same_bits(fused[i], chain[i]))
          << isa_name(active_isa()) << " cols " << cols << " element " << i;
    }
  }
}

TEST(SimdSinCos, BiasSinEqualsRowAddThenSinBitForBit) {
  IsaGuard guard;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    expect_bias_sin_is_row_add_then_sin<double>();
    expect_bias_sin_is_row_add_then_sin<float>();
  }
}

}  // namespace
}  // namespace qpinn::simd
