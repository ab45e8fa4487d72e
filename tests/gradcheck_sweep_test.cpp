// Table-driven finite-difference sweep over EVERY differentiable operation
// declared in autodiff/ops.hpp: first derivatives for all, double-backward
// for all (relu/abs included — their backward treats the step/sign factor
// as locally constant, and the inputs below stay away from the kink).
//
// The EXPECTED_OPS list mirrors the header; a new op added to ops.hpp
// without a table entry here fails the completeness check, so the sweep
// cannot silently go stale.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "autodiff/gradcheck.hpp"
#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace qpinn::autodiff {
namespace {

namespace simd = qpinn::simd;

struct OpCase {
  std::string name;
  std::vector<Tensor> inputs;
  ScalarFn fn;
};

/// Smooth scalarization: weighted sum keeps the reduction itself benign.
Variable to_scalar(const Variable& v) { return sum_all(v); }

/// Inputs bounded away from kinks/poles: uniform in [lo, hi].
Tensor bounded(Rng& rng, const Shape& shape, double lo, double hi) {
  return Tensor::rand(shape, rng, lo, hi);
}

std::vector<OpCase> make_cases() {
  Rng rng(20240806);
  std::vector<OpCase> cases;
  const Shape mat{3, 2};

  auto unary = [&](const std::string& name, double lo, double hi,
                   Variable (*op)(const Variable&)) {
    cases.push_back({name,
                     {bounded(rng, mat, lo, hi)},
                     [op](const std::vector<Variable>& in) {
                       return to_scalar(op(in[0]));
                     }});
  };
  auto binary = [&](const std::string& name, double lo, double hi,
                    Variable (*op)(const Variable&, const Variable&)) {
    // Broadcast shapes on purpose: (3,2) op (1,2) exercises sum_to in the
    // backward rule of every binary op.
    cases.push_back({name,
                     {bounded(rng, mat, lo, hi),
                      bounded(rng, {1, 2}, lo, hi)},
                     [op](const std::vector<Variable>& in) {
                       return to_scalar(op(in[0], in[1]));
                     }});
  };

  binary("add", -2.0, 2.0, add);
  binary("sub", -2.0, 2.0, sub);
  binary("mul", -2.0, 2.0, mul);
  binary("div", 0.5, 2.0, div);  // divisor bounded away from 0

  unary("neg", -2.0, 2.0, neg);
  unary("exp", -1.5, 1.5, exp);
  unary("log", 0.5, 3.0, log);
  unary("tanh", -2.0, 2.0, tanh);
  unary("sin", -2.0, 2.0, sin);
  unary("cos", -2.0, 2.0, cos);
  unary("sqrt", 0.5, 3.0, sqrt);
  unary("reciprocal", 0.5, 3.0, reciprocal);
  unary("square", -2.0, 2.0, square);
  unary("sigmoid", -2.0, 2.0, sigmoid);
  unary("softplus", -2.0, 2.0, softplus);
  unary("relu", 0.5, 2.0, relu);  // away from the kink at 0
  unary("abs", -2.0, -0.5, abs);  // strictly negative branch

  cases.push_back({"scale",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(scale(in[0], -1.75));
                   }});
  cases.push_back({"add_scalar",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(add_scalar(in[0], 0.5));
                   }});
  cases.push_back({"pow_scalar",
                   {bounded(rng, mat, 0.5, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(pow_scalar(in[0], 2.5));
                   }});

  cases.push_back({"matmul",
                   {bounded(rng, {2, 3}, -1.0, 1.0),
                    bounded(rng, {3, 2}, -1.0, 1.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(matmul(in[0], in[1]));
                   }});
  cases.push_back({"transpose",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     // Non-uniform weights so transpose ordering matters.
                     const Variable w = Variable::constant(
                         Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3}));
                     return to_scalar(mul(transpose(in[0]), w));
                   }});

  cases.push_back({"sum_all",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return sum_all(in[0]);
                   }});
  cases.push_back({"mean_all",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return mean_all(in[0]);
                   }});
  cases.push_back({"sum_to",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     const Variable reduced = sum_to(in[0], {1, 2});
                     const Variable w = Variable::constant(
                         Tensor::from_vector({2, 3}, {1, 2}));
                     return to_scalar(mul(reduced, w));
                   }});
  cases.push_back({"broadcast_to",
                   {bounded(rng, {1, 2}, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     const Variable wide = broadcast_to(in[0], {3, 2});
                     const Variable w = Variable::constant(
                         Tensor::from_vector({1, 2, 3, 4, 5, 6}, {3, 2}));
                     return to_scalar(mul(wide, w));
                   }});

  cases.push_back({"reshape",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     const Variable flat = reshape(in[0], {6});
                     const Variable w = Variable::constant(
                         Tensor::from_vector({1, 2, 3, 4, 5, 6}, {6}));
                     return to_scalar(mul(flat, w));
                   }});
  cases.push_back({"slice_cols",
                   {bounded(rng, {3, 4}, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(square(slice_cols(in[0], 1, 3)));
                   }});
  cases.push_back({"concat_cols",
                   {bounded(rng, {3, 2}, -2.0, 2.0),
                    bounded(rng, {3, 1}, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(square(concat_cols({in[0], in[1]})));
                   }});
  cases.push_back({"slice_rows",
                   {bounded(rng, {4, 2}, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(square(slice_rows(in[0], 1, 3)));
                   }});
  cases.push_back({"concat_rows",
                   {bounded(rng, {2, 2}, -2.0, 2.0),
                    bounded(rng, {1, 2}, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(square(concat_rows({in[0], in[1]})));
                   }});

  cases.push_back({"mse",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return mse(in[0]);
                   }});
  cases.push_back({"bias_tanh",
                   {bounded(rng, mat, -2.0, 2.0),
                    bounded(rng, {1, 2}, -1.0, 1.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(bias_tanh(in[0], in[1]));
                   }});
  cases.push_back({"bias_sin",
                   {bounded(rng, mat, -2.0, 2.0),
                    bounded(rng, {1, 2}, -1.0, 1.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(bias_sin(in[0], in[1]));
                   }});
  cases.push_back({"square_sum",
                   {bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return square_sum(in[0]);
                   }});
  // Both weight layouts: same-shape and the trainer's (N,1) column vector.
  cases.push_back({"weighted_square_sum",
                   {bounded(rng, mat, 0.5, 2.0),
                    bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return weighted_square_sum(in[0], in[1]);
                   }});
  cases.push_back({"weighted_square_sum",
                   {bounded(rng, {3, 1}, 0.5, 2.0),
                    bounded(rng, mat, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return weighted_square_sum(in[0], in[1]);
                   }});
  cases.push_back({"column",
                   {bounded(rng, {3, 3}, -2.0, 2.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(square(column(in[0], 1)));
                   }});
  cases.push_back({"matmul_tn",
                   {bounded(rng, {3, 2}, -1.0, 1.0),
                    bounded(rng, {3, 4}, -1.0, 1.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(matmul_tn(in[0], in[1]));
                   }});
  cases.push_back({"matmul_nt",
                   {bounded(rng, {2, 3}, -1.0, 1.0),
                    bounded(rng, {4, 3}, -1.0, 1.0)},
                   [](const std::vector<Variable>& in) {
                     return to_scalar(matmul_nt(in[0], in[1]));
                   }});

  return cases;
}

/// Every differentiable op declared in autodiff/ops.hpp (operator sugar
/// resolves to these; NoGradGuard/grad_mode are modes, not ops).
const std::set<std::string> kExpectedOps = {
    "add",        "sub",        "mul",          "div",        "neg",
    "scale",      "add_scalar", "exp",          "log",        "tanh",
    "sin",        "cos",        "sqrt",         "reciprocal", "square",
    "sigmoid",    "softplus",   "pow_scalar",   "relu",       "abs",
    "matmul",     "transpose",  "sum_all",      "mean_all",   "sum_to",
    "broadcast_to", "reshape",  "slice_cols",   "concat_cols",
    "slice_rows", "concat_rows", "mse",         "column",     "bias_tanh",
    "bias_sin",   "square_sum", "weighted_square_sum", "matmul_tn",
    "matmul_nt",
};

TEST(GradcheckSweep, TableCoversEveryDeclaredOp) {
  std::set<std::string> covered;
  for (const OpCase& c : make_cases()) covered.insert(c.name);
  for (const std::string& op : kExpectedOps) {
    EXPECT_TRUE(covered.count(op)) << "op '" << op << "' has no sweep case";
  }
  for (const std::string& name : covered) {
    EXPECT_TRUE(kExpectedOps.count(name))
        << "sweep case '" << name << "' is not in the declared op list";
  }
}

TEST(GradcheckSweep, FirstDerivatives) {
  for (const OpCase& c : make_cases()) {
    const GradcheckReport report = check_gradients(c.fn, c.inputs);
    EXPECT_TRUE(report.ok) << c.name << ": " << report.detail
                           << " (max abs err " << report.max_abs_err << ")";
  }
}

// The sweep again under every selectable SIMD variant: the finite-difference
// reference and the analytic gradient both run on the forced table, so any
// variant whose kernels drift from the scalar contract fails here.
TEST(GradcheckSweep, FirstDerivativesUnderEverySimdVariant) {
  const simd::Isa original = simd::active_isa();
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const OpCase& c : make_cases()) {
      const GradcheckReport report = check_gradients(c.fn, c.inputs);
      EXPECT_TRUE(report.ok)
          << c.name << " under " << simd::isa_name(isa) << ": "
          << report.detail << " (max abs err " << report.max_abs_err << ")";
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
}

TEST(GradcheckSweep, SecondDerivatives) {
  for (const OpCase& c : make_cases()) {
    // Squaring the scalar output makes the first derivative 2*f(x)*grad f(x),
    // which depends on x even for (piecewise-)linear ops — otherwise the
    // inner grad of check_second_gradients would be a constant with no
    // differentiable path. The op's backward rule still runs inside the
    // double-backward graph, which is what this sweep is after.
    const ScalarFn fn = c.fn;
    const ScalarFn squared = [fn](const std::vector<Variable>& in) {
      return square(fn(in));
    };
    const GradcheckReport report = check_second_gradients(squared, c.inputs);
    EXPECT_TRUE(report.ok) << c.name << ": " << report.detail
                           << " (max abs err " << report.max_abs_err << ")";
  }
}

// The double-backward sweep under every selectable SIMD variant: the matmul
// trio's backward rules call one another (matmul_nt, matmul_tn, matmul), so
// each second derivative runs all three micro-kernels of the forced table.
TEST(GradcheckSweep, SecondDerivativesUnderEverySimdVariant) {
  const simd::Isa original = simd::active_isa();
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const OpCase& c : make_cases()) {
      const ScalarFn fn = c.fn;
      const ScalarFn squared = [fn](const std::vector<Variable>& in) {
        return square(fn(in));
      };
      const GradcheckReport report =
          check_second_gradients(squared, c.inputs);
      EXPECT_TRUE(report.ok)
          << c.name << " under " << simd::isa_name(isa) << ": "
          << report.detail << " (max abs err " << report.max_abs_err << ")";
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
}

}  // namespace
}  // namespace qpinn::autodiff
