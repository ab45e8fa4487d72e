// Tests for forward Taylor jets (nn/jet.hpp) and the residual paths built
// on them (FieldModel::derivatives, Tdse2dSolver, envelope_field).
//
// The oracle is reverse-mode `partial`: every jet derivative must match it
// to 1e-12 relative, and the parameter gradient of a jet residual loss must
// match the `partial` loss's to 1e-10 relative. Jets round differently from
// nested reverse sweeps, so these are tolerance checks; values (u, v) stay
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/derivatives.hpp"
#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/eigen_pinn.hpp"
#include "core/tdse2d.hpp"
#include "core/trainer.hpp"
#include "nn/jet.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

namespace ad = qpinn::autodiff;
using ad::Variable;

/// max |a - b| / max |b|; an undefined `a` counts as zeros.
double max_rel(const Variable& a, const Variable& b) {
  const Tensor& tb = b.value();
  double diff = 0.0, scale = 0.0;
  for (std::int64_t i = 0; i < tb.numel(); ++i) {
    const double va = a.defined() ? a.value()[i] : 0.0;
    diff = std::max(diff, std::abs(va - tb[i]));
    scale = std::max(scale, std::abs(tb[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

void expect_bitwise(const Variable& a, const Variable& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.value()[i], b.value()[i]) << what << " differs at " << i;
  }
}

/// Forwards to a backbone but has no jet rule of its own, so a FieldModel
/// around it takes Module's default forward_jet (nn::jet_by_partial, i.e.
/// `partial`) over the very same parameters.
class NoJet : public nn::Module {
 public:
  explicit NoJet(nn::Module& inner) : inner_(inner) {}
  Variable forward(const Variable& x) override { return inner_.forward(x); }
  std::vector<Variable> parameters() const override {
    return inner_.parameters();
  }
  std::vector<std::pair<std::string, Variable>> named_parameters()
      const override {
    return inner_.named_parameters();
  }
  std::int64_t input_dim() const override { return inner_.input_dim(); }
  std::int64_t output_dim() const override { return inner_.output_dim(); }

 private:
  nn::Module& inner_;
};

/// A jet model and its `partial` twin sharing one backbone.
struct ModelPair {
  std::shared_ptr<FieldModel> jet;
  std::unique_ptr<FieldModel> oracle;
};

ModelPair make_pair_for(const FieldModelConfig& config) {
  ModelPair pair;
  pair.jet = make_field_model(config);
  pair.oracle = std::make_unique<FieldModel>(
      std::make_unique<NoJet>(pair.jet->backbone()), config.hard_ic,
      config.normalization);
  return pair;
}

/// make_model_for's configuration.
FieldModelConfig benchmark_config(const SchrodingerProblem& problem,
                                  bool hard_ic) {
  FieldModelConfig config = default_model_config(problem, /*seed=*/5);
  if (hard_ic) {
    config.hard_ic = HardIc{problem.config().initial, problem.domain().t_lo};
  }
  return config;
}

Variable interior_points(const Domain& domain, std::int64_t n = 48) {
  Rng rng(91);
  return Variable::leaf(latin_hypercube_points(domain, n, rng));
}

/// derivatives() through the jet against the `partial` twin: all six
/// components within 1e-12, u and v bit for bit equal to forward().
void expect_jet_matches_partial(const ModelPair& models, const Variable& X) {
  const FieldDerivatives jet = models.jet->derivatives(X);
  const FieldDerivatives ref = models.oracle->derivatives(X);
  const Variable out = models.jet->forward(X);
  expect_bitwise(jet.u, ad::slice_cols(out, 0, 1), "u");
  expect_bitwise(jet.v, ad::slice_cols(out, 1, 2), "v");
  EXPECT_LE(max_rel(jet.u_t, ref.u_t), 1e-12);
  EXPECT_LE(max_rel(jet.v_t, ref.v_t), 1e-12);
  EXPECT_LE(max_rel(jet.u_xx, ref.u_xx), 1e-12);
  EXPECT_LE(max_rel(jet.v_xx, ref.v_xx), 1e-12);
}

// --- layers ------------------------------------------------------------

/// A module's jet against `partial` on every output channel, with x to
/// second order and the other coordinates to first.
void expect_module_jet_matches_partial(nn::Module& module, std::int64_t n,
                                       const std::vector<int>& order) {
  Rng rng(3);
  const Tensor points =
      Tensor::rand({n, module.input_dim()}, rng, -1.0, 1.0);
  const Variable X = Variable::leaf(points);
  const Variable out = module.forward(X);
  const nn::Jet jet = module.forward_jet(
      nn::input_jet(X.detach(), order, std::vector<double>(order.size(), 1.0)));
  expect_bitwise(jet.value, out, "value");
  for (std::int64_t c = 0; c < module.output_dim(); ++c) {
    SCOPED_TRACE("channel " + std::to_string(c));
    const nn::Jet ref =
        nn::partial_jet(ad::slice_cols(out, c, c + 1), X, order);
    const nn::Jet got = jet.slice_cols(c, c + 1);
    const Shape& column = ref.value.shape();
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (order[k] >= 1) {
        EXPECT_LE(max_rel(got.d1[k], nn::or_zeros(ref.d1[k], column)), 1e-12)
            << "d1 along " << k;
      }
      if (order[k] >= 2) {
        EXPECT_LE(max_rel(got.d2[k], nn::or_zeros(ref.d2[k], column)), 1e-12)
            << "d2 along " << k;
      }
    }
  }
}

TEST(JetLayers, EveryModuleMatchesPartial) {
  Rng rng(11);
  nn::Linear linear(2, 3, rng);
  expect_module_jet_matches_partial(linear, 9, {2, 1});
  nn::PeriodicEmbedding periodic({1.7, 0.0});
  expect_module_jet_matches_partial(periodic, 9, {2, 1});
  nn::RandomFourierFeatures fourier(3, 5, 1.0, rng);
  expect_module_jet_matches_partial(fourier, 9, {2, 2, 1});
  nn::MlpConfig config;
  config.in_dim = 3;
  config.out_dim = 2;
  config.hidden = {7, 6};
  config.fourier = nn::FourierConfig{4, 1.0};
  config.periods = {2.5, 0.0, 0.0};
  config.seed = 4;
  nn::Mlp mlp(config);
  expect_module_jet_matches_partial(mlp, 11, {2, 2, 1});
}

// Module's default forward_jet is exact only for input jets; it refuses a
// value with a grad path, a direction mixing coordinates, and a jet that
// already carries second derivatives.
TEST(JetLayers, DefaultJetRejectsAnyOtherJet) {
  Rng rng(12);
  nn::Linear linear(2, 3, rng);
  NoJet no_jet(linear);
  const Variable X = Variable::leaf(Tensor::rand({5, 2}, rng, -1.0, 1.0));
  const nn::Jet input = nn::input_jet(X.detach(), {2, 1}, {1.0, 1.0});
  EXPECT_NO_THROW(no_jet.forward_jet(input));
  EXPECT_THROW(no_jet.forward_jet(nn::input_jet(X, {2, 1}, {1.0, 1.0})),
               ValueError);
  nn::Jet mixed = input;
  mixed.d1[0] = Variable::constant(Tensor::ones({5, 2}));
  EXPECT_THROW(no_jet.forward_jet(mixed), ValueError);
  nn::Jet curved = input;
  curved.d2[0] = input.d1[0];
  EXPECT_THROW(no_jet.forward_jet(curved), ValueError);
}

// --- FieldModel ----------------------------------------------------------

TEST(JetFieldModel, BenchmarkModelsMatchPartial) {
  const std::vector<std::shared_ptr<SchrodingerProblem>> problems = {
      make_free_packet_problem(), make_ho_coherent_problem(),
      make_well_superposition_problem(), make_nls_soliton_problem(),
      make_nls_raissi_problem()};
  for (const auto& problem : problems) {
    for (bool hard_ic : {true, false}) {
      SCOPED_TRACE(problem->name() + (hard_ic ? " hard IC" : " soft IC"));
      const ModelPair models =
          make_pair_for(benchmark_config(*problem, hard_ic));
      expect_jet_matches_partial(models, interior_points(problem->domain()));
    }
  }
}

TEST(JetFieldModel, UnnormalizedAndPlainBackbonesMatchPartial) {
  auto problem = make_nls_soliton_problem();
  FieldModelConfig base = benchmark_config(*problem, /*hard_ic=*/true);
  const Variable X = interior_points(problem->domain());

  FieldModelConfig raw = base;  // periodic + Fourier on raw inputs
  raw.normalization.reset();
  FieldModelConfig no_fourier = base;  // periodic embedding straight in
  no_fourier.fourier.reset();
  FieldModelConfig plain = base;  // neither embedding
  plain.fourier.reset();
  plain.x_period = 0.0;
  for (const FieldModelConfig& config : {raw, no_fourier, plain}) {
    expect_jet_matches_partial(make_pair_for(config), X);
  }
}

TEST(JetFieldModel, HardIcWithConstantPartMatchesPartial) {
  auto problem = make_free_packet_problem();
  FieldModelConfig config = benchmark_config(*problem, /*hard_ic=*/true);
  // Both psi0 parts constant: no grad path, so their derivatives are zero.
  config.hard_ic->psi0 = [](const Variable& x) {
    return std::make_pair(Variable::constant(Tensor::full(x.shape(), 0.5)),
                          Variable::constant(Tensor::zeros(x.shape())));
  };
  expect_jet_matches_partial(make_pair_for(config),
                             interior_points(problem->domain()));
}

TEST(JetFieldModel, ResidualParameterGradientsMatchPartial) {
  // B1 (free), B2 (potential, v0 = 0) and B4 (cubic term, periodic).
  for (const auto& problem :
       {make_free_packet_problem(), make_ho_coherent_problem(),
        make_nls_soliton_problem()}) {
    SCOPED_TRACE(problem->name());
    const ModelPair models =
        make_pair_for(benchmark_config(*problem, /*hard_ic=*/true));
    const Variable X = interior_points(problem->domain());
    const Variable r_jet = problem->residual(*models.jet, X);
    const Variable r_ref = problem->residual(*models.oracle, X);
    EXPECT_LE(max_rel(r_jet, r_ref), 1e-12);
    const std::vector<Variable> params = models.jet->parameters();
    const auto g_jet = ad::grad(ad::mse(r_jet), params);
    const auto g_ref = ad::grad(ad::mse(r_ref), params);
    ASSERT_EQ(g_jet.size(), g_ref.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_LE(max_rel(g_jet[i], g_ref[i]), 1e-10) << "parameter " << i;
    }
  }
}

TEST(JetFieldModel, BackboneWithoutJetRuleMatchesReverseSweep) {
  // The reverse-mode formulation: one create_graph sweep per channel,
  // coordinate and order through the whole model. Module's default jet
  // sweeps the backbone alone, against its normalized input, and applies
  // the normalization's scale afterwards, so its derivatives round
  // differently: they match to the oracle's 1e-12, values bit for bit.
  auto problem = make_free_packet_problem();
  const ModelPair models =
      make_pair_for(benchmark_config(*problem, /*hard_ic=*/true));
  const Variable X = interior_points(problem->domain());
  const FieldDerivatives d = models.oracle->derivatives(X);
  const Variable out = models.oracle->forward(X);
  const Variable u = ad::slice_cols(out, 0, 1);
  const Variable v = ad::slice_cols(out, 1, 2);
  expect_bitwise(d.u, u, "u");
  expect_bitwise(d.v, v, "v");
  EXPECT_LE(max_rel(d.u_t, ad::partial(u, X, 1)), 1e-12);
  EXPECT_LE(max_rel(d.v_t, ad::partial(v, X, 1)), 1e-12);
  EXPECT_LE(max_rel(d.u_xx, ad::partial_n(u, X, 0, 2)), 1e-12);
  EXPECT_LE(max_rel(d.v_xx, ad::partial_n(v, X, 0, 2)), 1e-12);
}

TEST(JetFieldModel, HardIcJetNeedsGradMode) {
  auto problem = make_free_packet_problem();
  const ModelPair soft =
      make_pair_for(benchmark_config(*problem, /*hard_ic=*/false));
  const ModelPair hard =
      make_pair_for(benchmark_config(*problem, /*hard_ic=*/true));
  const Variable X = interior_points(problem->domain(), 8);
  ad::NoGradGuard guard;
  // Without a hard IC the jet needs no reverse sweep at all.
  const FieldDerivatives d = soft.jet->derivatives(X);
  EXPECT_TRUE(d.u_xx.value().all_finite());
  EXPECT_THROW(hard.jet->derivatives(X), ValueError);
}

// --- tdse2d and the eigen-PINN envelope ------------------------------------

TEST(JetTdse2d, ResidualMatchesPartial) {
  Tdse2dConfig config;
  config.domain = Domain2d{-3.0, 3.0, -2.0, 2.0, 0.0, 0.4};
  config.reference = free_gaussian_packet_2d(-0.5, 0.5, 0.6, 0.2, -0.3, 0.7);
  config.initial = gaussian_packet_2d_ic(-0.5, 0.5, 0.6, 0.2, -0.3, 0.7);
  config.potential = [](double x, double y) { return 0.5 * (x * x + y * y); };
  config.hidden = {16, 16};
  config.fourier = nn::FourierConfig{8, 1.0};
  config.seed = 3;
  Tdse2dSolver solver(config);
  Rng rng(8);
  const Tensor points = latin_hypercube_points_2d(config.domain, 40, rng);
  const Tensor jet_residual = solver.residual_at(points);

  // The solver's network rebuilt from the same seed, differentiated by
  // `partial` (x, y second order, t first order).
  nn::MlpConfig mc;
  mc.in_dim = 3;
  mc.out_dim = 2;
  mc.hidden = config.hidden;
  mc.fourier = config.fourier;
  mc.seed = config.seed;
  nn::Mlp net(mc);
  const Domain2d& d = config.domain;
  const Variable X = Variable::leaf(points);
  const auto col = [&](std::int64_t c) { return ad::slice_cols(X, c, c + 1); };
  const auto normalized = [&](std::int64_t c, double lo, double hi) {
    return ad::scale(ad::add_scalar(col(c), -0.5 * (lo + hi)), 2.0 / (hi - lo));
  };
  const Variable raw = net.forward(ad::concat_cols(
      {normalized(0, d.x_lo, d.x_hi), normalized(1, d.y_lo, d.y_hi),
       normalized(2, d.t_lo, d.t_hi)}));
  const Variable ramp = ad::add_scalar(col(2), -d.t_lo);
  auto [u0, v0] = config.initial(col(0), col(1));
  const Variable u = ad::add(u0, ad::mul(ramp, ad::slice_cols(raw, 0, 1)));
  const Variable v = ad::add(v0, ad::mul(ramp, ad::slice_cols(raw, 1, 2)));
  const auto lap = [&](const Variable& y) {
    return ad::add(ad::partial_n(y, X, 0, 2), ad::partial_n(y, X, 1, 2));
  };
  Tensor v_pot(Shape{points.rows(), 1});
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    v_pot[r] = config.potential(points.at(r, 0), points.at(r, 1));
  }
  const Variable V = Variable::constant(v_pot);
  const Variable r1 = ad::sub(
      ad::add(ad::neg(ad::partial(v, X, 2)), ad::scale(lap(u), 0.5)),
      ad::mul(V, u));
  const Variable r2 = ad::sub(
      ad::add(ad::partial(u, X, 2), ad::scale(lap(v), 0.5)), ad::mul(V, v));
  const Variable reference = ad::concat_cols({r1, r2});
  EXPECT_LE(max_rel(Variable::constant(jet_residual), reference), 1e-12);
}

// --- FieldModel with two space axes ----------------------------------------

TEST(JetFieldModel2d, DerivativesMatchPartial) {
  const Domain domain{-3.0, 3.0, 0.0, 0.4, -2.0, 2.0};
  const FieldOp2d initial =
      gaussian_packet_2d_ic(-0.5, 0.5, 0.6, 0.2, -0.3, 0.7);
  const Variable X = interior_points(domain, 40);
  for (const bool hard_ic : {true, false}) {
    for (const bool normalized : {true, false}) {
      SCOPED_TRACE(std::string(hard_ic ? "hard IC" : "soft IC") +
                   (normalized ? ", normalized" : ", raw inputs"));
      nn::MlpConfig mc;
      mc.in_dim = 3;
      mc.out_dim = 2;
      mc.hidden = {12, 12};
      mc.fourier = nn::FourierConfig{6, 1.0};
      mc.seed = 9;
      std::optional<HardIc> ic;
      if (hard_ic) {
        ic = HardIc{[initial](const Variable& xy) {
                      return initial(ad::slice_cols(xy, 0, 1),
                                     ad::slice_cols(xy, 1, 2));
                    },
                    domain.t_lo};
      }
      std::optional<InputNormalization> norm;
      if (normalized) {
        norm = InputNormalization::for_domain(domain.x_lo, domain.x_hi,
                                              domain.t_lo, domain.t_hi);
        norm->y_center = 0.0;
        norm->y_half_span = 2.0;
      }
      FieldModel model(std::make_unique<nn::Mlp>(mc), ic, norm);
      const FieldDerivatives d = model.derivatives(X);
      const Variable out = model.forward(X);
      const Variable u = ad::slice_cols(out, 0, 1);
      const Variable v = ad::slice_cols(out, 1, 2);
      expect_bitwise(d.u, u, "u");
      expect_bitwise(d.v, v, "v");
      const auto lap = [&](const Variable& f) {
        return ad::add(ad::partial_n(f, X, 0, 2), ad::partial_n(f, X, 1, 2));
      };
      EXPECT_LE(max_rel(d.u_t, ad::partial(u, X, 2)), 1e-12);
      EXPECT_LE(max_rel(d.v_t, ad::partial(v, X, 2)), 1e-12);
      EXPECT_LE(max_rel(d.u_xx, lap(u)), 1e-12);
      EXPECT_LE(max_rel(d.v_xx, lap(v)), 1e-12);
    }
  }
}

/// The free Gaussian packet (matches quantum::free_gaussian_packet) as
/// tape ops on an x column and a t column:
///   psi = N a^(-1/2) exp(-(X - k t)^2 / (4 s^2 a) + i k (X - k t / 2)),
/// X = x - x0, a = 1 + i tau, tau = t / (2 s^2). With D = 1 + tau^2 and
/// theta = atan(tau), a^(-1/2) = D^(-1/4) e^(-i theta / 2), where
/// cos(theta / 2) = sqrt((1 + D^(-1/2)) / 2) and
/// sin(theta / 2) = tau D^(-1/2) / (2 cos(theta / 2)).
std::pair<Variable, Variable> packet_ops(const Variable& x, const Variable& t,
                                         double x0, double k, double s) {
  const double norm = std::pow(2.0 * std::numbers::pi * s * s, -0.25);
  const Variable dx = ad::add_scalar(x, -x0);
  const Variable tau = ad::scale(t, 1.0 / (2.0 * s * s));
  const Variable d = ad::add_scalar(ad::square(tau), 1.0);
  const Variable inv_sqrt_d = ad::reciprocal(ad::sqrt(d));
  const Variable c = ad::sqrt(ad::scale(ad::add_scalar(inv_sqrt_d, 1.0), 0.5));
  const Variable sn = ad::div(ad::mul(tau, inv_sqrt_d), ad::scale(c, 2.0));
  const Variable q = ad::div(ad::square(ad::sub(dx, ad::scale(t, k))),
                             ad::scale(d, 4.0 * s * s));
  const Variable phase =
      ad::add(ad::mul(q, tau),
              ad::sub(ad::scale(dx, k), ad::scale(t, 0.5 * k * k)));
  const Variable envelope =
      ad::scale(ad::mul(ad::sqrt(inv_sqrt_d), ad::exp(ad::neg(q))), norm);
  const Variable cp = ad::cos(phase);
  const Variable sp = ad::sin(phase);
  return {ad::mul(envelope, ad::add(ad::mul(cp, c), ad::mul(sp, sn))),
          ad::mul(envelope, ad::sub(ad::mul(sp, c), ad::mul(cp, sn)))};
}

/// A parameterless backbone computing the exact separable packet
/// psi_x(x, t) psi_y(y, t) from (x, y, t) rows; its derivatives come from
/// Module's default jet.
class ExactPacket2d : public nn::Module {
 public:
  Variable forward(const Variable& X) override {
    const Variable t = ad::slice_cols(X, 2, 3);
    const auto [ux, vx] =
        packet_ops(ad::slice_cols(X, 0, 1), t, -0.5, 0.5, 0.6);
    const auto [uy, vy] =
        packet_ops(ad::slice_cols(X, 1, 2), t, 0.2, -0.3, 0.7);
    return ad::concat_cols({ad::sub(ad::mul(ux, uy), ad::mul(vx, vy)),
                            ad::add(ad::mul(ux, vy), ad::mul(vx, uy))});
  }
  std::vector<Variable> parameters() const override { return {}; }
  std::vector<std::pair<std::string, Variable>> named_parameters()
      const override {
    return {};
  }
  std::int64_t input_dim() const override { return 3; }
  std::int64_t output_dim() const override { return 2; }
};

TEST(JetTdse2d, ExactPacketResidualVanishes) {
  Tdse2dConfig config;
  config.domain = Domain2d{-3.0, 3.0, -2.0, 2.0, 0.0, 0.4};
  config.reference = free_gaussian_packet_2d(-0.5, 0.5, 0.6, 0.2, -0.3, 0.7);
  config.initial = gaussian_packet_2d_ic(-0.5, 0.5, 0.6, 0.2, -0.3, 0.7);
  const Tdse2dTraining setup = make_tdse2d_training(config);
  FieldModel exact(std::make_unique<ExactPacket2d>());
  Rng rng(17);
  const Tensor points = latin_hypercube_points_2d(config.domain, 64, rng);
  const Tensor psi = exact.evaluate(points);
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    const auto want =
        config.reference(points.at(r, 0), points.at(r, 1), points.at(r, 2));
    ASSERT_NEAR(psi.at(r, 0), want.real(), 1e-12) << "row " << r;
    ASSERT_NEAR(psi.at(r, 1), want.imag(), 1e-12) << "row " << r;
  }
  const Tensor residual =
      setup.problem->residual(exact, Variable::leaf(points)).value();
  ASSERT_EQ(residual.shape(), (Shape{64, 2}));
  for (std::int64_t i = 0; i < residual.numel(); ++i) {
    EXPECT_LE(std::abs(residual[i]), 1e-10) << "entry " << i;
  }
}

TEST(JetEigenPinn, EnvelopeFieldMatchesPartial) {
  nn::MlpConfig mc;
  mc.in_dim = 1;
  mc.out_dim = 1;
  mc.hidden = {12, 12};
  mc.seed = 6;
  nn::Mlp net(mc);
  NoJet no_jet(net);
  const std::int64_t n = 33;
  const Tensor xs = Tensor::linspace(-1.0, 2.0, n).reshape({n, 1});
  const auto [psi, psi_xx] =
      envelope_field(net, Variable::constant(xs), -1.0, 2.0);
  const auto [psi_ref, psi_xx_ref] =
      envelope_field(no_jet, Variable::leaf(xs), -1.0, 2.0);
  expect_bitwise(psi, psi_ref, "psi");
  EXPECT_LE(max_rel(psi_xx, psi_xx_ref), 1e-12);
}

/// The stationary FieldModel is the envelope ansatz: derivatives() takes
/// u and u_xx from envelope_field, forward() is e(x) NN(x).
TEST(JetEigenPinn, StationaryFieldModelMatchesPartial) {
  nn::MlpConfig mc;
  mc.in_dim = 1;
  mc.out_dim = 1;
  mc.hidden = {12, 12};
  mc.seed = 6;
  FieldModel model(std::make_unique<nn::Mlp>(mc), -1.0, 2.0);
  const std::int64_t n = 33;
  const Variable X =
      Variable::leaf(Tensor::linspace(-1.0, 2.0, n).reshape({n, 1}));
  const FieldDerivatives d = model.derivatives(X);
  const Variable phi = model.forward(X);
  expect_bitwise(d.u, phi, "u");
  EXPECT_LE(max_rel(d.u_xx, ad::partial_n(phi, X, 0, 2)), 1e-12);
  EXPECT_FALSE(d.v.defined());
  EXPECT_THROW(FieldModel(std::make_unique<nn::Mlp>(mc)), ValueError);
}

// --- training ------------------------------------------------------------

/// Shards capture jet graphs concurrently on pool threads: replay stays
/// bit-identical to the eager step (run under TSan in CI).
TEST(JetTrainer, ShardedCaptureOnPoolThreadsBitIdentical) {
  const ad::Precision saved = ad::precision_mode();
  ad::set_precision_mode(ad::Precision::kFp64);
  set_global_threads(4);
  auto problem = make_free_packet_problem();
  TrainConfig base = default_train_config(1, /*seed=*/7);
  base.resample_every = 0;
  base.threads = 4;
  base.sampling.n_interior_x = 8;
  base.sampling.n_interior_t = 8;
  base.sampling.n_initial = 16;
  base.sampling.n_boundary = 8;
  std::vector<double> losses[2];
  for (const GraphMode mode : {GraphMode::kOff, GraphMode::kOn}) {
    TrainConfig config = base;
    config.graph = mode;
    FieldModelConfig mc = benchmark_config(*problem, /*hard_ic=*/true);
    mc.hidden = {12, 12};
    mc.fourier = nn::FourierConfig{6, 1.0};
    Trainer trainer(problem, make_field_model(mc), config);
    for (std::int64_t e = 0; e < 6; ++e) {
      losses[mode == GraphMode::kOn].push_back(trainer.step(e).total_loss);
    }
  }
  set_global_threads(default_num_threads());
  ad::set_precision_mode(saved);
  for (std::size_t i = 0; i < losses[0].size(); ++i) {
    ASSERT_TRUE(std::isfinite(losses[0][i]));
    EXPECT_EQ(losses[0][i], losses[1][i]) << "step " << i;
  }
}

/// The tanh jet rule under capture: graph-on replay matches the eager step
/// bit for bit over 3 steps, serially and over 4 shards.
TEST(JetTrainer, EveryActivationReplaysBitIdentical) {
  const ad::Precision saved = ad::precision_mode();
  ad::set_precision_mode(ad::Precision::kFp64);
  auto problem = make_free_packet_problem();
  for (const std::int64_t threads : {1, 4}) {
    set_global_threads(threads);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<double> losses[2];
    for (const GraphMode mode : {GraphMode::kOff, GraphMode::kOn}) {
      TrainConfig config = default_train_config(1, /*seed=*/7);
      config.resample_every = 0;
      config.threads = threads;
      config.graph = mode;
      config.sampling.n_interior_x = 8;
      config.sampling.n_interior_t = 8;
      config.sampling.n_initial = 16;
      config.sampling.n_boundary = 8;
      FieldModelConfig mc = benchmark_config(*problem, /*hard_ic=*/true);
      mc.hidden = {12, 12};
      mc.fourier = nn::FourierConfig{6, 1.0};
      Trainer trainer(problem, make_field_model(mc), config);
      for (std::int64_t e = 0; e < 3; ++e) {
        losses[mode == GraphMode::kOn].push_back(trainer.step(e).total_loss);
      }
    }
    for (std::size_t i = 0; i < losses[0].size(); ++i) {
      ASSERT_TRUE(std::isfinite(losses[0][i]));
      EXPECT_EQ(losses[0][i], losses[1][i]) << "step " << i;
    }
  }
  set_global_threads(default_num_threads());
  ad::set_precision_mode(saved);
}

}  // namespace
}  // namespace qpinn::core
