#include "core/eigen_pinn.hpp"

#include <cmath>

#include "autodiff/grad.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace qpinn::core {

using autodiff::Variable;
using namespace autodiff;

void EigenPinnConfig::validate() const {
  if (!(x_hi > x_lo)) throw ConfigError("EigenPinn: x_hi must exceed x_lo");
  if (n_collocation < 8) {
    throw ConfigError("EigenPinn: need at least 8 collocation points");
  }
  if (epochs < 1) throw ConfigError("EigenPinn: epochs must be >= 1");
  if (weight_residual <= 0.0) {
    throw ConfigError("EigenPinn: weight_residual must be positive");
  }
  if (weight_norm < 0.0 || weight_ortho < 0.0 || weight_energy_anchor < 0.0) {
    throw ConfigError("EigenPinn: penalty weights must be >= 0");
  }
}

EigenPinn::EigenPinn(EigenPinnConfig config) : config_(std::move(config)) {
  config_.validate();
}

namespace {

/// Trapezoid row-weights as an (N, 1) constant.
Variable trapezoid_weights(std::int64_t n, double dx) {
  Tensor w(Shape{n, 1});
  for (std::int64_t i = 0; i < n; ++i) w[i] = dx;
  w[0] *= 0.5;
  w[n - 1] *= 0.5;
  return Variable::constant(w);
}

/// 4 (x - a)(b - x) / (b - a)^2: zero at the walls, O(1) inside.
Variable envelope(const Variable& x, double a, double b) {
  const double envelope_scale = 4.0 / ((b - a) * (b - a));
  return scale(mul(add_scalar(x, -a), add_scalar(neg(x), b)), envelope_scale);
}

}  // namespace

std::pair<Variable, Variable> envelope_field(nn::Module& net, const Variable& x,
                                             double a, double b) {
  const Variable e = envelope(x, a, b);
  const nn::Jet n = net.forward_jet(nn::input_jet(x.detach(), {2}, {1.0}));
  // e = s (x - a)(b - x), so e' = s (a + b - 2x) and e'' = -2s.
  const double s = 4.0 / ((b - a) * (b - a));
  const Variable e_x = scale(add_scalar(scale(x.detach(), -2.0), a + b), s);
  Variable psi_xx =
      add(scale(mul(e_x, n.d1[0]), 2.0), scale(n.value, -2.0 * s));
  if (n.d2[0].defined()) psi_xx = add(mul(e, n.d2[0]), psi_xx);
  return {mul(e, n.value), psi_xx};
}

EigenState EigenPinn::solve_state(
    double energy_guess, const std::vector<EigenState>& lower_states) const {
  const std::int64_t n = config_.n_collocation;
  const Tensor xs =
      Tensor::linspace(config_.x_lo, config_.x_hi, n).reshape({n, 1});
  const double dx =
      (config_.x_hi - config_.x_lo) / static_cast<double>(n - 1);

  // Fresh network per state; input x, output raw amplitude.
  nn::MlpConfig mlp;
  mlp.in_dim = 1;
  mlp.out_dim = 1;
  mlp.hidden = config_.hidden;
  mlp.activation = config_.activation;
  mlp.seed = config_.seed + 7919 * (lower_states.size() + 1);
  nn::Mlp net(mlp);

  Variable energy = Variable::leaf(Tensor::full({1, 1}, energy_guess));
  std::vector<Variable> params = net.parameters();
  params.push_back(energy);

  optim::AdamConfig adam_config = config_.adam;
  optim::Adam optimizer(params, adam_config);

  const Variable weights = trapezoid_weights(n, dx);
  // Previously found states as constants for the deflation penalties.
  std::vector<Variable> lower;
  lower.reserve(lower_states.size());
  for (const EigenState& state : lower_states) {
    QPINN_CHECK(static_cast<std::int64_t>(state.psi.size()) == n,
                "lower state sampled on a different grid");
    lower.push_back(Variable::constant(
        Tensor::from_vector(state.psi, Shape{n, 1})));
  }

  const double a = config_.x_lo, b = config_.x_hi;
  double last_residual = 0.0;

  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Exact Dirichlet envelope; the jet carries the x-derivatives.
    const Variable x = Variable::constant(xs);
    const auto [psi, psi_xx] = envelope_field(net, x, a, b);
    Variable h_psi = scale(psi_xx, -0.5);
    if (config_.potential) {
      h_psi = add(h_psi, mul(config_.potential(x), psi));
    }
    const Variable residual = sub(h_psi, mul(energy, psi));
    const Variable residual_loss = mse(residual);

    // (integral psi^2 dx - 1)^2.
    const Variable norm_integral = sum_all(mul(weights, square(psi)));
    const Variable norm_loss = square(add_scalar(norm_integral, -1.0));

    Variable loss = scale(residual_loss, config_.weight_residual);
    loss = add(loss, scale(norm_loss, config_.weight_norm));
    for (const Variable& lower_psi : lower) {
      const Variable overlap = sum_all(mul(weights, mul(psi, lower_psi)));
      loss = add(loss, scale(square(overlap), config_.weight_ortho));
    }
    if (epoch < config_.anchor_epochs && config_.weight_energy_anchor > 0.0) {
      const Variable anchor = square(add_scalar(energy, -energy_guess));
      loss = add(loss, scale(anchor, config_.weight_energy_anchor));
    }

    last_residual = residual_loss.item();
    if (config_.log_every > 0 && epoch % config_.log_every == 0) {
      log::info() << "eigen state " << lower_states.size() << " epoch "
                  << epoch << " loss " << loss.item() << " E "
                  << energy.item();
    }

    const std::vector<Variable> grads = grad(loss, params);
    std::vector<Tensor> grad_tensors;
    grad_tensors.reserve(grads.size());
    for (const Variable& g : grads) grad_tensors.push_back(g.value());
    optimizer.step(grad_tensors);
  }

  // Extract the final normalized, sign-fixed wavefunction.
  EigenState state;
  state.energy = energy.item();
  state.residual_loss = last_residual;
  state.x.resize(static_cast<std::size_t>(n));
  state.psi.resize(static_cast<std::size_t>(n));
  {
    NoGradGuard guard;
    const Variable x = Variable::constant(xs);
    const Tensor psi = mul(envelope(x, a, b), net.forward(x)).value();
    double norm = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double w = (i == 0 || i == n - 1) ? 0.5 : 1.0;
      norm += w * psi[i] * psi[i] * dx;
    }
    norm = std::sqrt(norm);
    QPINN_CHECK(norm > 1e-12, "eigen-PINN collapsed to the zero function");
    double sign = 1.0;
    for (std::int64_t i = 0; i < n; ++i) {
      if (std::abs(psi[i]) > 1e-6) {
        sign = psi[i] > 0.0 ? 1.0 : -1.0;
        break;
      }
    }
    for (std::int64_t i = 0; i < n; ++i) {
      state.x[static_cast<std::size_t>(i)] = xs[i];
      state.psi[static_cast<std::size_t>(i)] = sign * psi[i] / norm;
    }
  }
  return state;
}

std::vector<EigenState> EigenPinn::solve_spectrum(
    const std::vector<double>& energy_guesses) const {
  QPINN_CHECK(!energy_guesses.empty(), "need at least one energy guess");
  std::vector<EigenState> states;
  states.reserve(energy_guesses.size());
  for (double guess : energy_guesses) {
    states.push_back(solve_state(guess, states));
  }
  return states;
}

}  // namespace qpinn::core
