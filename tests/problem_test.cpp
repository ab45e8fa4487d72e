#include <gtest/gtest.h>

#include <cmath>

#include "core/benchmarks.hpp"
#include "core/schrodinger_problem.hpp"
#include "nn/module.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

using autodiff::Variable;
using namespace autodiff;

/// A fake "network" emitting an exact plane wave e^{i(kx - k^2/2 t)} —
/// used to prove the residual machinery yields exactly zero on a true
/// solution of the free TDSE.
class PlaneWaveBackbone : public nn::Module {
 public:
  explicit PlaneWaveBackbone(double k) : k_(k) {
    // One token trainable leaf so the graph requires grad.
    gain_ = Variable::leaf(Tensor::ones({1, 1}));
  }

  Variable forward(const Variable& x) override {
    const Variable xs = slice_cols(x, 0, 1);
    const Variable ts = slice_cols(x, 1, 2);
    const Variable phase = sub(scale(xs, k_), scale(ts, 0.5 * k_ * k_));
    const Variable gain = broadcast_to(gain_, phase.shape());
    return concat_cols({mul(gain, cos(phase)), mul(gain, sin(phase))});
  }
  std::vector<Variable> parameters() const override { return {gain_}; }
  std::vector<std::pair<std::string, Variable>> named_parameters()
      const override {
    return {{"gain", gain_}};
  }
  std::int64_t input_dim() const override { return 2; }
  std::int64_t output_dim() const override { return 2; }

 private:
  double k_;
  Variable gain_;
};

SchrodingerProblem::Config base_config() {
  SchrodingerProblem::Config config;
  config.name = "test";
  config.domain = Domain{-2.0, 2.0, 0.0, 1.0};
  config.initial = gaussian_packet_ic(0.0, 1.0, 0.5);
  config.reference_field = quantum::free_gaussian_packet(0.0, 1.0, 0.5);
  return config;
}

TEST(SchrodingerProblem, ResidualZeroForExactPlaneWave) {
  const SchrodingerProblem problem(base_config());
  FieldModel model(std::make_unique<PlaneWaveBackbone>(2.0));

  const Tensor points = grid_points(problem.domain(), 7, 5);
  const Variable X = Variable::leaf(points);
  const Variable residual = problem.residual(model, X);
  ASSERT_EQ(residual.shape(), (Shape{35, 2}));
  EXPECT_LT(residual.value().abs_max(), 1e-10);
}

TEST(SchrodingerProblem, ResidualNonzeroForWrongDispersion) {
  // A plane wave with the wrong temporal frequency must NOT satisfy the
  // PDE — guards against a degenerate residual.
  SchrodingerProblem::Config config = base_config();
  config.nonlinearity = 0.0;
  const SchrodingerProblem problem(config);

  class WrongWave : public PlaneWaveBackbone {
   public:
    WrongWave() : PlaneWaveBackbone(2.0) {}
  };
  // Build the wave but evaluate the residual for the HARMONIC problem.
  SchrodingerProblem::Config harmonic = base_config();
  harmonic.potential = harmonic_potential_op(1.0);
  const SchrodingerProblem harmonic_problem(harmonic);
  FieldModel model(std::make_unique<WrongWave>());
  const Variable X = Variable::leaf(grid_points(problem.domain(), 5, 5));
  const Variable residual = harmonic_problem.residual(model, X);
  EXPECT_GT(residual.value().abs_max(), 0.1);
}

TEST(SchrodingerProblem, NonlinearityEntersResidual) {
  SchrodingerProblem::Config linear = base_config();
  SchrodingerProblem::Config cubic = base_config();
  cubic.nonlinearity = -1.0;
  const SchrodingerProblem lp(linear), cp(cubic);
  FieldModel model(std::make_unique<PlaneWaveBackbone>(1.0));
  const Variable X = Variable::leaf(grid_points(lp.domain(), 5, 4));
  const double linear_max = lp.residual(model, X).value().abs_max();
  const Variable X2 = Variable::leaf(grid_points(lp.domain(), 5, 4));
  const double cubic_max = cp.residual(model, X2).value().abs_max();
  // Plane wave solves the linear TDSE; the cubic term (|psi| = 1) shifts it.
  EXPECT_LT(linear_max, 1e-10);
  EXPECT_NEAR(cubic_max, 1.0, 1e-10);
}

TEST(SchrodingerProblem, AuxiliaryLossLayout) {
  SchrodingerProblem::Config config = base_config();
  config.weight_ic = 7.0;
  config.weight_bc = 3.0;
  config.weight_norm = 2.0;
  const SchrodingerProblem problem(config);
  auto model = make_model_for(problem, 1, /*hard_ic=*/false);

  SamplingConfig sampling;
  sampling.n_boundary = 8;
  const CollocationSet points = make_collocation(problem.domain(), sampling);
  const auto losses = problem.auxiliary_losses(*model, points);
  ASSERT_EQ(losses.size(), 3u);
  EXPECT_EQ(losses[0].name, "ic");
  EXPECT_DOUBLE_EQ(losses[0].weight, 7.0);
  EXPECT_EQ(losses[1].name, "bc");
  EXPECT_DOUBLE_EQ(losses[1].weight, 3.0);
  EXPECT_EQ(losses[2].name, "norm");
  EXPECT_DOUBLE_EQ(losses[2].weight, 2.0);
  for (const auto& term : losses) {
    EXPECT_EQ(term.value.numel(), 1);
    EXPECT_GE(term.value.item(), 0.0);
  }
}

TEST(SchrodingerProblem, HardIcModelSkipsIcLoss) {
  SchrodingerProblem::Config config = base_config();
  const SchrodingerProblem problem(config);
  auto model = make_model_for(problem, 1, /*hard_ic=*/true);
  SamplingConfig sampling;
  const CollocationSet points = make_collocation(problem.domain(), sampling);
  const auto losses = problem.auxiliary_losses(*model, points);
  for (const auto& term : losses) EXPECT_NE(term.name, "ic");
}

TEST(SchrodingerProblem, PeriodicProblemSkipsBcLoss) {
  SchrodingerProblem::Config config = base_config();
  config.periodic_x = true;
  const SchrodingerProblem problem(config);
  auto model = make_model_for(problem, 1, /*hard_ic=*/false);
  SamplingConfig sampling;
  sampling.n_boundary = 8;
  const CollocationSet points = make_collocation(problem.domain(), sampling);
  for (const auto& term : problem.auxiliary_losses(*model, points)) {
    EXPECT_NE(term.name, "bc");
  }
}

TEST(SchrodingerProblem, NormLossNearZeroForUnitNormField) {
  // The plane-wave model has |psi| = 1 everywhere, so integral |psi|^2 dx
  // equals the domain width at every t; set that as the target.
  SchrodingerProblem::Config config = base_config();
  config.weight_norm = 1.0;
  config.norm_target = config.domain.x_span();
  const SchrodingerProblem problem(config);
  FieldModel model(std::make_unique<PlaneWaveBackbone>(1.0));
  EXPECT_LT(problem.norm_conservation_loss(model).item(), 1e-12);
}

TEST(SchrodingerProblem, ConfigValidation) {
  SchrodingerProblem::Config config = base_config();
  config.initial = nullptr;
  EXPECT_THROW(SchrodingerProblem{config}, ConfigError);
  config = base_config();
  config.reference_field = nullptr;  // optional: an inverse problem has none
  EXPECT_NO_THROW(SchrodingerProblem{config});
  config = base_config();
  config.weight_ic = -1.0;
  EXPECT_THROW(SchrodingerProblem{config}, ConfigError);
  config = base_config();
  config.norm_quad_nx = 1;
  EXPECT_THROW(SchrodingerProblem{config}, ConfigError);
}

// ---- benchmark factories --------------------------------------------------------

TEST(Benchmarks, AllFiveConstruct) {
  EXPECT_EQ(make_free_packet_problem()->name(), "free_packet");
  EXPECT_EQ(make_ho_coherent_problem()->name(), "ho_coherent");
  EXPECT_EQ(make_well_superposition_problem()->name(), "well_beat");
  EXPECT_EQ(make_nls_soliton_problem()->name(), "nls_soliton");
  EXPECT_EQ(make_nls_raissi_problem()->name(), "nls_raissi");
}

TEST(Benchmarks, ReferencesMatchInitialOps) {
  // Each problem's differentiable IC must agree with its reference field
  // at t = t_lo (sampled).
  for (const auto& problem :
       {make_free_packet_problem(), make_ho_coherent_problem(),
        make_nls_soliton_problem()}) {
    const auto reference = problem->reference();
    const Domain d = problem->domain();
    const Tensor xs = Tensor::linspace(d.x_lo + 0.1, d.x_hi - 0.1, 9)
                          .reshape({9, 1});
    const auto [u0, v0] = problem->config().initial(
        Variable::constant(xs));
    for (std::int64_t i = 0; i < 9; ++i) {
      const auto exact = reference(xs[i], d.t_lo);
      EXPECT_NEAR(u0.value()[i], exact.real(), 1e-9) << problem->name();
      EXPECT_NEAR(v0.value()[i], exact.imag(), 1e-9) << problem->name();
    }
  }
}

TEST(Benchmarks, RaissiReferenceMatchesIcAndConservesMass) {
  const auto problem = make_nls_raissi_problem();
  const auto reference = problem->reference();
  // At t = 0 the interpolated split-step field must equal 2 sech x up to
  // the bilinear interpolation error of the 256-point storage grid.
  for (double x : {-2.0, 0.0, 1.5}) {
    EXPECT_NEAR(reference(x, 0.0).real(),
                quantum::nls_raissi_initial(x).real(), 5e-4);
  }
  // |psi(0, t)| grows toward the t = pi/4 focusing peak (higher-order
  // soliton breathing) — a shape property of the true solution.
  EXPECT_GT(std::abs(reference(0.0, 0.78)), std::abs(reference(0.0, 0.0)));
}

TEST(Benchmarks, DefaultModelConfigRespectsPeriodicity) {
  const auto periodic = make_nls_soliton_problem();
  const auto open = make_free_packet_problem();
  EXPECT_GT(default_model_config(*periodic).x_period, 0.0);
  EXPECT_DOUBLE_EQ(default_model_config(*open).x_period, 0.0);
  EXPECT_TRUE(default_model_config(*open).normalization.has_value());
}

}  // namespace
}  // namespace qpinn::core
