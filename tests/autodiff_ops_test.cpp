// Property tests: every differentiable op's first AND second derivatives
// are verified against central finite differences across shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>

#include "autodiff/gradcheck.hpp"
#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/variable.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qpinn::autodiff {
namespace {

Tensor random(Shape shape, std::uint64_t seed, double lo = -1.5,
              double hi = 1.5) {
  Rng rng(seed);
  return Tensor::rand(std::move(shape), rng, lo, hi);
}

// ---- unary ops, parameterized over (op, domain, shape) -----------------------

struct UnaryCase {
  const char* name;
  std::function<Variable(const Variable&)> fn;
  double lo, hi;      // sampling domain keeping the op smooth
  bool second_order;  // skip 2nd-order for piecewise-linear ops
};

class UnaryGradP
    : public ::testing::TestWithParam<std::tuple<UnaryCase, Shape>> {};

TEST_P(UnaryGradP, FirstOrder) {
  const auto& [op_case, shape] = GetParam();
  const ScalarFn f = [&](const std::vector<Variable>& in) {
    return sum_all(op_case.fn(in[0]));
  };
  const Tensor x = random(shape, 101, op_case.lo, op_case.hi);
  const GradcheckReport report = check_gradients(f, {x});
  EXPECT_TRUE(report.ok) << op_case.name << ": " << report.detail;
}

TEST_P(UnaryGradP, SecondOrder) {
  const auto& [op_case, shape] = GetParam();
  if (!op_case.second_order) GTEST_SKIP() << "no smooth second derivative";
  const ScalarFn f = [&](const std::vector<Variable>& in) {
    return sum_all(square(op_case.fn(in[0])));
  };
  const Tensor x = random(shape, 202, op_case.lo, op_case.hi);
  const GradcheckReport report = check_second_gradients(f, {x});
  EXPECT_TRUE(report.ok) << op_case.name << ": " << report.detail;
}

const UnaryCase kUnaryCases[] = {
    {"neg", [](const Variable& x) { return neg(x); }, -1.5, 1.5, true},
    {"scale", [](const Variable& x) { return scale(x, -2.5); }, -1.5, 1.5,
     true},
    {"add_scalar", [](const Variable& x) { return add_scalar(x, 0.7); }, -1.5,
     1.5, true},
    {"exp", [](const Variable& x) { return exp(x); }, -1.0, 1.0, true},
    {"log", [](const Variable& x) { return log(x); }, 0.3, 2.0, true},
    {"tanh", [](const Variable& x) { return tanh(x); }, -1.5, 1.5, true},
    {"sin", [](const Variable& x) { return sin(x); }, -2.0, 2.0, true},
    {"cos", [](const Variable& x) { return cos(x); }, -2.0, 2.0, true},
    {"sqrt", [](const Variable& x) { return sqrt(x); }, 0.3, 2.0, true},
    {"reciprocal", [](const Variable& x) { return reciprocal(x); }, 0.4, 2.0,
     true},
    {"square", [](const Variable& x) { return square(x); }, -1.5, 1.5, true},
    {"pow2.5", [](const Variable& x) { return pow_scalar(x, 2.5); }, 0.3, 2.0,
     true},
    {"abs", [](const Variable& x) { return abs(x); }, 0.2, 2.0, false},
};

const Shape kUnaryShapes[] = {Shape{4}, Shape{3, 5}, Shape{1, 1}};

std::string unary_case_name(
    const ::testing::TestParamInfo<std::tuple<UnaryCase, Shape>>& info) {
  const auto& [op_case, shape] = info.param;
  std::string name = op_case.name;
  for (auto d : shape) name += "_" + std::to_string(d);
  for (auto& c : name) {
    if (c == '.') c = 'p';  // gtest names must be alphanumeric
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllOps, UnaryGradP,
                         ::testing::Combine(::testing::ValuesIn(kUnaryCases),
                                            ::testing::ValuesIn(kUnaryShapes)),
                         unary_case_name);

// ---- binary ops with broadcasting ----------------------------------------------

struct BinaryCase {
  const char* name;
  std::function<Variable(const Variable&, const Variable&)> fn;
  double lo, hi;
};

class BinaryGradP : public ::testing::TestWithParam<
                        std::tuple<BinaryCase, std::pair<Shape, Shape>>> {};

TEST_P(BinaryGradP, FirstAndSecondOrder) {
  const auto& [op_case, shapes] = GetParam();
  const ScalarFn f = [&](const std::vector<Variable>& in) {
    return sum_all(square(op_case.fn(in[0], in[1])));
  };
  const Tensor a = random(shapes.first, 303, op_case.lo, op_case.hi);
  const Tensor b = random(shapes.second, 304, op_case.lo, op_case.hi);
  const GradcheckReport first = check_gradients(f, {a, b});
  EXPECT_TRUE(first.ok) << op_case.name << " first: " << first.detail;
  const GradcheckReport second = check_second_gradients(f, {a, b});
  EXPECT_TRUE(second.ok) << op_case.name << " second: " << second.detail;
}

const BinaryCase kBinaryCases[] = {
    {"add", [](const Variable& a, const Variable& b) { return add(a, b); },
     -1.5, 1.5},
    {"sub", [](const Variable& a, const Variable& b) { return sub(a, b); },
     -1.5, 1.5},
    {"mul", [](const Variable& a, const Variable& b) { return mul(a, b); },
     -1.5, 1.5},
    {"div", [](const Variable& a, const Variable& b) { return div(a, b); },
     0.4, 2.0},
};

const std::pair<Shape, Shape> kBinaryShapePairs[] = {
    {Shape{3, 4}, Shape{3, 4}},
    {Shape{3, 4}, Shape{1, 4}},
    {Shape{3, 4}, Shape{}},
    {Shape{3, 1}, Shape{1, 4}},
};

std::string binary_case_name(
    const ::testing::TestParamInfo<std::tuple<BinaryCase,
                                              std::pair<Shape, Shape>>>&
        info) {
  const auto& [op_case, shapes] = info.param;
  std::string name = op_case.name;
  for (auto d : shapes.first) name += "_" + std::to_string(d);
  name += "_vs";
  for (auto d : shapes.second) name += "_" + std::to_string(d);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BinaryGradP,
    ::testing::Combine(::testing::ValuesIn(kBinaryCases),
                       ::testing::ValuesIn(kBinaryShapePairs)),
    binary_case_name);

// ---- structural / linear-algebra ops ----------------------------------------------

TEST(StructuralGrad, Matmul) {
  const ScalarFn f = [](const std::vector<Variable>& in) {
    return sum_all(square(matmul(in[0], in[1])));
  };
  const Tensor a = random({4, 3}, 405);
  const Tensor b = random({3, 5}, 406);
  EXPECT_TRUE(check_gradients(f, {a, b}).ok);
  EXPECT_TRUE(check_second_gradients(f, {a, b}).ok);
}

// matmul's backward runs matmul_nt / matmul_tn on the untransposed
// operands; it must reproduce the materialized-transpose products bit for
// bit under every table, on shapes with row, column and depth fringes.
TEST(StructuralGrad, MatmulBackwardMatchesMaterializedTransposeBitForBit) {
  const simd::Isa original = simd::active_isa();
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const auto& [n, k, m] : {std::tuple<std::int64_t, std::int64_t,
                                             std::int64_t>{225, 64, 62},
                                  {225, 62, 2},
                                  {13, 513, 9},
                                  {7, 3, 64}}) {
      const Tensor a = random({n, k}, 408);
      const Tensor b = random({k, m}, 409);
      const Tensor g = random({n, m}, 410);
      const Variable va = Variable::leaf(a);
      const Variable vb = Variable::leaf(b);
      const std::vector<Variable> grads =
          grad(matmul(va, vb), {va, vb}, Variable::constant(g));
      const Tensor want_a = kernels::matmul(g, kernels::transpose(b));
      const Tensor want_b = kernels::matmul(kernels::transpose(a), g);
      ASSERT_TRUE(grads[0].value().same_shape(want_a));
      ASSERT_TRUE(grads[1].value().same_shape(want_b));
      const std::string at = std::string(simd::isa_name(isa)) + " " +
                             std::to_string(n) + "x" + std::to_string(k) +
                             "x" + std::to_string(m);
      EXPECT_EQ(std::memcmp(grads[0].value().data(), want_a.data(),
                            sizeof(double) * want_a.numel()),
                0)
          << "dA " << at;
      EXPECT_EQ(std::memcmp(grads[1].value().data(), want_b.data(),
                            sizeof(double) * want_b.numel()),
                0)
          << "dB " << at;
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
}

TEST(StructuralGrad, Transpose) {
  const ScalarFn f = [](const std::vector<Variable>& in) {
    return sum_all(square(transpose(in[0])));
  };
  EXPECT_TRUE(check_gradients(f, {random({3, 5}, 407)}).ok);
}

TEST(StructuralGrad, ReshapeSliceConcat) {
  const ScalarFn f = [](const std::vector<Variable>& in) {
    const Variable r = reshape(in[0], {2, 6});
    const Variable left = slice_cols(r, 0, 2);
    const Variable right = slice_cols(r, 2, 6);
    return sum_all(square(concat_cols({right, left})));
  };
  EXPECT_TRUE(check_gradients(f, {random({4, 3}, 408)}).ok);
  EXPECT_TRUE(check_second_gradients(f, {random({4, 3}, 409)}).ok);
}

TEST(StructuralGrad, SliceConcatRows) {
  const ScalarFn f = [](const std::vector<Variable>& in) {
    const Variable top = slice_rows(in[0], 0, 2);
    const Variable bottom = slice_rows(in[0], 2, 4);
    return sum_all(square(concat_rows({bottom, top})));
  };
  EXPECT_TRUE(check_gradients(f, {random({4, 3}, 410)}).ok);
}

TEST(StructuralGrad, SumToBroadcastTo) {
  const ScalarFn f = [](const std::vector<Variable>& in) {
    const Variable bc = broadcast_to(in[0], {4, 3});
    const Variable st = sum_to(square(bc), {1, 3});
    return sum_all(square(st));
  };
  EXPECT_TRUE(check_gradients(f, {random({1, 3}, 411)}).ok);
  EXPECT_TRUE(check_second_gradients(f, {random({1, 3}, 412)}).ok);
}

TEST(StructuralGrad, MseAndColumn) {
  const ScalarFn f = [](const std::vector<Variable>& in) {
    return mse(column(in[0], 1));
  };
  EXPECT_TRUE(check_gradients(f, {random({5, 3}, 413)}).ok);
}

// ---- grad-mode machinery -------------------------------------------------------------

TEST(GradMode, NoGradGuardProducesConstants) {
  const Variable x = Variable::leaf(Tensor::scalar(2.0));
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_mode_enabled());
    const Variable y = square(x);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_DOUBLE_EQ(y.item(), 4.0);
  }
  EXPECT_TRUE(grad_mode_enabled());
  EXPECT_TRUE(square(x).requires_grad());
}

TEST(GradMode, DetachCutsGraph) {
  const Variable x = Variable::leaf(Tensor::scalar(3.0));
  const Variable y = square(x).detach();
  EXPECT_FALSE(y.requires_grad());
  EXPECT_DOUBLE_EQ(y.item(), 9.0);
}

TEST(GradMode, ConstantsDropBackward) {
  const Variable c = Variable::constant(2.0);
  const Variable y = square(c);
  EXPECT_FALSE(y.requires_grad());
}

TEST(OperatorSugar, MatchesNamedOps) {
  const Variable a = Variable::leaf(Tensor::scalar(3.0));
  const Variable b = Variable::leaf(Tensor::scalar(4.0));
  EXPECT_DOUBLE_EQ((a + b).item(), 7.0);
  EXPECT_DOUBLE_EQ((a - b).item(), -1.0);
  EXPECT_DOUBLE_EQ((a * b).item(), 12.0);
  EXPECT_DOUBLE_EQ((a / b).item(), 0.75);
  EXPECT_DOUBLE_EQ((-a).item(), -3.0);
  EXPECT_DOUBLE_EQ((a + 1.0).item(), 4.0);
  EXPECT_DOUBLE_EQ((2.0 - a).item(), -1.0);
  EXPECT_DOUBLE_EQ((a * 2.0).item(), 6.0);
  EXPECT_DOUBLE_EQ((1.0 / b).item(), 0.25);
}

TEST(Variable, UndefinedAccessorsThrow) {
  Variable undefined;
  EXPECT_FALSE(undefined.defined());
  EXPECT_THROW(undefined.value(), ValueError);
  EXPECT_THROW(undefined.detach(), ValueError);
}

}  // namespace
}  // namespace qpinn::autodiff
