#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "autodiff/ops.hpp"
#include "nn/fourier.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/periodic.hpp"
#include "nn/serialize.hpp"
#include "util/error.hpp"

namespace qpinn::nn {
namespace {

using autodiff::Variable;

// ---- init --------------------------------------------------------------------

TEST(Init, XavierUniformBounds) {
  Rng rng(1);
  const Tensor w = Linear(64, 64, rng).weight().value();
  const double bound = std::sqrt(6.0 / 128.0);
  EXPECT_LE(w.abs_max(), bound);
  EXPECT_GT(w.abs_max(), 0.5 * bound);  // actually fills the range
}

// ---- linear -----------------------------------------------------------------------

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(4);
  Linear layer(3, 5, rng);
  const Variable x = Variable::constant(Tensor::ones({7, 3}));
  const Variable y = layer.forward(x);
  EXPECT_EQ(y.shape(), (Shape{7, 5}));
  EXPECT_EQ(layer.parameters().size(), 2u);
  EXPECT_EQ(layer.num_parameters(), 3 * 5 + 5);
  EXPECT_THROW(layer.forward(Variable::constant(Tensor::ones({7, 4}))),
               ShapeError);
}

TEST(Linear, ForwardTanhIsTanhOfForward) {
  Rng rng(5);
  Linear layer(3, 2, rng);
  Variable bias_param = layer.bias();
  Tensor& bias = bias_param.mutable_value();
  for (std::int64_t k = 0; k < bias.numel(); ++k) {
    bias[k] = 0.25 * static_cast<double>(k + 1);
  }
  const Variable x =
      Variable::constant(Tensor::rand({4, 3}, rng, -1.0, 1.0));
  const Tensor z = layer.forward(x).value();
  const Tensor t = layer.forward_tanh(x).value();
  const Tensor composed = autodiff::tanh(layer.forward(x)).value();
  for (std::int64_t k = 0; k < z.numel(); ++k) {
    // The fused bias_tanh sweep equals tanh of the affine map bit for bit;
    // the vectorized tanh is accurate to a few ulp of libm, not bit-equal.
    EXPECT_EQ(t[k], composed[k]);
    EXPECT_NEAR(t[k], std::tanh(z[k]), 5e-15);
  }
}

TEST(Linear, NamedParameters) {
  Rng rng(6);
  Linear layer(2, 2, rng);
  const auto named = layer.named_parameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

// ---- fourier features --------------------------------------------------------------

TEST(Fourier, OutputLayoutSinThenCos) {
  Rng rng(7);
  RandomFourierFeatures rff(2, 8, 1.0, rng);
  EXPECT_EQ(rff.output_dim(), 16);
  const Variable x = Variable::constant(Tensor::zeros({3, 2}));
  const Tensor y = rff.forward(x).value();
  // At x = 0: sin block = 0, cos block = 1.
  for (std::int64_t c = 0; c < 8; ++c) EXPECT_DOUBLE_EQ(y.at(0, c), 0.0);
  for (std::int64_t c = 8; c < 16; ++c) EXPECT_DOUBLE_EQ(y.at(0, c), 1.0);
}

TEST(Fourier, ValuesBoundedAndNotTrainable) {
  Rng rng(8);
  RandomFourierFeatures rff(3, 16, 2.0, rng);
  Rng data_rng(9);
  const Variable x =
      Variable::constant(Tensor::rand({20, 3}, data_rng, -5.0, 5.0));
  const Tensor y = rff.forward(x).value();
  EXPECT_LE(y.abs_max(), 1.0 + 1e-12);
  EXPECT_TRUE(rff.parameters().empty());
}

TEST(Fourier, ConfigValidation) {
  Rng rng(10);
  EXPECT_THROW(RandomFourierFeatures(0, 4, 1.0, rng), ValueError);
  EXPECT_THROW(RandomFourierFeatures(2, 4, -1.0, rng), ValueError);
}

// ---- periodic embedding ---------------------------------------------------------------

TEST(Periodic, ExactPeriodicityThroughNetwork) {
  MlpConfig config;
  config.in_dim = 2;
  config.out_dim = 2;
  config.hidden = {8, 8};
  config.periods = {2.0, 0.0};
  config.seed = 11;
  Mlp net(config);

  Tensor a(Shape{1, 2});
  a.at(0, 0) = 0.3;
  a.at(0, 1) = 0.9;
  Tensor b = a.clone();
  b.at(0, 0) = 0.3 + 2.0;
  const Tensor ya = net.forward(Variable::constant(a)).value();
  const Tensor yb = net.forward(Variable::constant(b)).value();
  EXPECT_NEAR(ya.at(0, 0), yb.at(0, 0), 1e-12);
  EXPECT_NEAR(ya.at(0, 1), yb.at(0, 1), 1e-12);
}

TEST(Periodic, PassThroughColumnsPreserved) {
  PeriodicEmbedding embed({0.0, 1.0});
  EXPECT_EQ(embed.output_dim(), 3);  // x passthrough + (sin, cos) of t
  Tensor x(Shape{1, 2});
  x.at(0, 0) = 0.25;
  x.at(0, 1) = 0.5;  // half period -> sin = 0, cos = -1
  const Tensor y = embed.forward(Variable::constant(x)).value();
  EXPECT_DOUBLE_EQ(y.at(0, 0), 0.25);
  EXPECT_NEAR(y.at(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(y.at(0, 2), -1.0, 1e-12);
}

TEST(Periodic, Validation) {
  EXPECT_THROW(PeriodicEmbedding({-1.0}), ValueError);
  EXPECT_THROW(PeriodicEmbedding(std::vector<double>{}), ValueError);
}

// ---- mlp ----------------------------------------------------------------------------------

TEST(Mlp, ForwardShapesAndParameterCount) {
  MlpConfig config;
  config.in_dim = 2;
  config.out_dim = 3;
  config.hidden = {16, 8};
  config.seed = 12;
  Mlp net(config);
  const Variable x = Variable::constant(Tensor::ones({5, 2}));
  EXPECT_EQ(net.forward(x).shape(), (Shape{5, 3}));
  EXPECT_EQ(net.num_parameters(), (2 * 16 + 16) + (16 * 8 + 8) + (8 * 3 + 3));
  EXPECT_EQ(net.num_layers(), 3u);
}

TEST(Mlp, FourierChangesFirstLayerWidth) {
  MlpConfig config;
  config.in_dim = 2;
  config.out_dim = 1;
  config.hidden = {4};
  config.fourier = FourierConfig{8, 1.0};
  config.seed = 13;
  Mlp net(config);
  // first linear: 16 -> 4 (RFF emits 2*8 features).
  EXPECT_EQ(net.num_parameters(), (16 * 4 + 4) + (4 * 1 + 1));
}

TEST(Mlp, ConfigValidation) {
  MlpConfig config;
  config.in_dim = 0;
  EXPECT_THROW(Mlp{config}, ConfigError);
  config.in_dim = 2;
  config.hidden = {};
  EXPECT_THROW(Mlp{config}, ConfigError);
  config.hidden = {4};
  config.periods = {1.0};  // wrong arity for in_dim = 2
  EXPECT_THROW(Mlp{config}, ConfigError);
  config.periods = {};
  config.fourier = FourierConfig{0, 1.0};
  EXPECT_THROW(Mlp{config}, ConfigError);
}

TEST(Mlp, DeterministicForSeed) {
  MlpConfig config;
  config.in_dim = 2;
  config.out_dim = 2;
  config.hidden = {8};
  config.seed = 99;
  Mlp a(config), b(config);
  const Variable x = Variable::constant(Tensor::ones({2, 2}));
  const Tensor ya = a.forward(x).value();
  const Tensor yb = b.forward(x).value();
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  }
}

// ---- serialization -----------------------------------------------------------------------

TEST(Serialize, RoundTripRestoresPredictions) {
  MlpConfig config;
  config.in_dim = 2;
  config.out_dim = 2;
  config.hidden = {8, 8};
  config.seed = 21;
  Mlp original(config);
  const std::string path = ::testing::TempDir() + "qpinn_ckpt.bin";
  save_parameters(path, original.named_parameters());

  config.seed = 22;  // different init
  Mlp restored(config);
  load_parameters(path, restored.named_parameters());

  const Variable x = Variable::constant(
      Tensor::from_vector({0.3, -0.7, 1.1, 0.2}, {2, 2}));
  const Tensor ya = original.forward(x).value();
  const Tensor yb = restored.forward(x).value();
  for (std::int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsWrongTargets) {
  MlpConfig config;
  config.in_dim = 2;
  config.out_dim = 2;
  config.hidden = {8};
  Mlp net(config);
  const std::string path = ::testing::TempDir() + "qpinn_ckpt2.bin";
  save_parameters(path, net.named_parameters());

  config.hidden = {4};  // shape mismatch
  Mlp smaller(config);
  EXPECT_THROW(load_parameters(path, smaller.named_parameters()), Error);

  EXPECT_THROW(load_parameters("/nonexistent/q.bin", net.named_parameters()),
               IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qpinn::nn
