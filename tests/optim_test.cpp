#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "optim/adam.hpp"
#include "optim/optimizer.hpp"
#include "optim/scheduler.hpp"
#include "util/error.hpp"

namespace qpinn::optim {
namespace {

using autodiff::Variable;

/// Minimizes f(p) = sum((p - target)^2) for `steps` iterations; returns the
/// final distance to the optimum.
double minimize_quadratic(Adam& optimizer, const Variable& p,
                          const Tensor& target, int steps) {
  for (int i = 0; i < steps; ++i) {
    const Variable diff =
        autodiff::sub(p, Variable::constant(target));
    const Variable loss = autodiff::sum_all(autodiff::square(diff));
    const auto grads = autodiff::grad(loss, {p});
    optimizer.step({grads[0].value()});
  }
  double dist = 0.0;
  for (std::int64_t i = 0; i < target.numel(); ++i) {
    const double d = p.value()[i] - target[i];
    dist += d * d;
  }
  return std::sqrt(dist);
}

Tensor target_tensor() { return Tensor::from_vector({1.0, -2.0, 0.5}, {3}); }

TEST(Adam, ConvergesOnQuadratic) {
  const Variable p = Variable::leaf(Tensor::zeros({3}));
  AdamConfig config;
  config.lr = 0.1;
  Adam optimizer({p}, config);
  EXPECT_LT(minimize_quadratic(optimizer, p, target_tensor(), 400), 1e-4);
  EXPECT_EQ(optimizer.step_count(), 400);
}

TEST(Adam, RejectsNonFiniteGradients) {
  const Variable p = Variable::leaf(Tensor::zeros({2}));
  Adam optimizer({p}, AdamConfig{});
  Tensor bad = Tensor::zeros({2});
  bad[0] = std::nan("");
  EXPECT_THROW(optimizer.step({bad}), NumericsError);
}

TEST(Adam, RejectsShapeMismatch) {
  const Variable p = Variable::leaf(Tensor::zeros({2}));
  Adam optimizer({p}, AdamConfig{});
  EXPECT_THROW(optimizer.step({Tensor::zeros({3})}), ShapeError);
  EXPECT_THROW(optimizer.step({}), ValueError);
}

TEST(Adam, ConfigValidation) {
  const Variable p = Variable::leaf(Tensor::zeros({1}));
  AdamConfig bad;
  bad.beta1 = 1.0;
  EXPECT_THROW(Adam({p}, bad), ValueError);
  AdamConfig bad_lr;
  bad_lr.lr = 0.0;
  EXPECT_THROW(Adam({p}, bad_lr), ValueError);
}

TEST(Optimizer, RequiresTrainableLeaves) {
  const Variable constant = Variable::constant(Tensor::zeros({2}));
  EXPECT_THROW(Adam({constant}, AdamConfig{}), ValueError);
  EXPECT_THROW(Adam({}, AdamConfig{}), ValueError);
}

// ---- gradient clipping -------------------------------------------------------

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  std::vector<Tensor> grads{Tensor::from_vector({3.0, 4.0}, {2})};
  const double norm = clip_grad_norm(grads, 1.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(grads[0][0], 0.6, 1e-12);
  EXPECT_NEAR(grads[0][1], 0.8, 1e-12);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  std::vector<Tensor> grads{Tensor::from_vector({0.3, 0.4}, {2})};
  const double norm = clip_grad_norm(grads, 1.0);
  EXPECT_DOUBLE_EQ(norm, 0.5);
  EXPECT_DOUBLE_EQ(grads[0][0], 0.3);
  EXPECT_THROW(clip_grad_norm(grads, 0.0), ValueError);
}

// ---- schedulers -----------------------------------------------------------------

TEST(Schedulers, ConstantLr) {
  EXPECT_EQ(decayed_lr(1e-3, 1.0, 2000, 0), 1e-3);
  EXPECT_EQ(decayed_lr(1e-3, 1.0, 2000, 10000), 1e-3);
}

TEST(Schedulers, ExponentialDecaySteps) {
  EXPECT_DOUBLE_EQ(decayed_lr(1e-3, 0.85, 2000, 0), 1e-3);
  EXPECT_DOUBLE_EQ(decayed_lr(1e-3, 0.85, 2000, 1999), 1e-3);
  EXPECT_NEAR(decayed_lr(1e-3, 0.85, 2000, 2000), 0.85e-3, 1e-15);
  EXPECT_NEAR(decayed_lr(1e-3, 0.85, 2000, 4000), 0.85 * 0.85e-3, 1e-15);
  EXPECT_THROW(decayed_lr(1e-3, 0.0, 10, 0), ValueError);
  EXPECT_THROW(decayed_lr(1e-3, 1.5, 10, 0), ValueError);
  EXPECT_THROW(decayed_lr(1e-3, 0.9, 0, 0), ValueError);
}

TEST(Optimizer, SetLrValidated) {
  const Variable p = Variable::leaf(Tensor::zeros({1}));
  Adam optimizer({p}, AdamConfig{});
  optimizer.set_lr(0.5);
  EXPECT_DOUBLE_EQ(optimizer.lr(), 0.5);
  EXPECT_THROW(optimizer.set_lr(0.0), ValueError);
}

}  // namespace
}  // namespace qpinn::optim
