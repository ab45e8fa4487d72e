#include "core/inverse_problem.hpp"

#include <cmath>

#include "autodiff/grad.hpp"
#include "optim/adam.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace qpinn::core {

using autodiff::Variable;
using namespace autodiff;

void InverseHarmonicConfig::validate() const {
  domain.validate();
  if (data_points.rank() != 2 || data_points.cols() != 2) {
    throw ConfigError("inverse: data_points must be (N, 2)");
  }
  if (data_values.rank() != 2 || data_values.cols() != 2 ||
      data_values.rows() != data_points.rows()) {
    throw ConfigError("inverse: data_values must match data_points rows");
  }
  if (!initial) throw ConfigError("inverse: initial condition op required");
  if (omega_guess <= 0.0) throw ConfigError("inverse: omega_guess must be > 0");
  if (epochs < 1) throw ConfigError("inverse: epochs must be >= 1");
}

std::pair<Tensor, Tensor> make_observations(
    const quantum::SpaceTimeField& field, const Domain& domain,
    std::int64_t nx, std::int64_t nt, double noise_stddev,
    std::uint64_t seed) {
  QPINN_CHECK(static_cast<bool>(field), "make_observations: field unset");
  QPINN_CHECK(nx >= 2 && nt >= 2, "make_observations: need nx, nt >= 2");
  QPINN_CHECK(noise_stddev >= 0.0, "make_observations: noise must be >= 0");
  const Tensor points = grid_points(domain, nx, nt);
  Tensor values(Shape{points.rows(), 2});
  Rng rng(seed);
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    const quantum::Complex psi =
        field(points.at(r, 0), points.at(r, 1));
    values.at(r, 0) = psi.real() + rng.normal(0.0, noise_stddev);
    values.at(r, 1) = psi.imag() + rng.normal(0.0, noise_stddev);
  }
  return {points, values};
}

InverseResult solve_inverse_harmonic(const InverseHarmonicConfig& config) {
  config.validate();

  // Field model: standard backbone with normalization; soft IC (the hard
  // IC transform would also work, kept soft to exercise the general path).
  FieldModelConfig mc;
  mc.hidden = {32, 32, 32};
  mc.fourier = nn::FourierConfig{16, 1.0};
  mc.normalization = InputNormalization::for_domain(
      config.domain.x_lo, config.domain.x_hi, config.domain.t_lo,
      config.domain.t_hi);
  mc.seed = config.seed;
  auto model = make_field_model(mc);

  // omega = w^2 keeps the frequency positive without constraints.
  Variable w = Variable::leaf(
      Tensor::full({1, 1}, std::sqrt(config.omega_guess)));
  std::vector<Variable> params = model->parameters();
  params.push_back(w);
  optim::Adam optimizer(params, config.adam);

  const CollocationSet points = make_collocation(config.domain, config.sampling);
  const Variable data_x = Variable::constant(config.data_points);
  const Variable data_y = Variable::constant(config.data_values);

  InverseResult result;
  result.omega_history.reserve(static_cast<std::size_t>(config.epochs));

  Rng resample_rng(config.seed ^ 0x51ed2701ULL);
  Tensor interior = points.interior;
  const std::int64_t n_interior =
      config.sampling.n_interior_x * config.sampling.n_interior_t;

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Fresh collocation points every epoch (same rationale as the forward
    // trainer: prevents residual overfitting).
    interior = latin_hypercube_points(config.domain, n_interior, resample_rng);

    const Variable omega = square(w);

    // PDE residual with the PARAMETRIZED potential V = 1/2 omega^2 x^2.
    const Variable X = Variable::leaf(interior, /*requires_grad=*/true);
    const auto [u, v, u_t, v_t, u_xx, v_xx] = model->derivatives(X);
    const Variable x_col = slice_cols(X, 0, 1);
    const Variable v_pot =
        mul(broadcast_to(scale(square(omega), 0.5), x_col.shape()),
            square(x_col));
    const Variable r1 = sub(add(neg(v_t), scale(u_xx, 0.5)), mul(v_pot, u));
    const Variable r2 = sub(add(u_t, scale(v_xx, 0.5)), mul(v_pot, v));
    const Variable pde_loss = add(mse(r1), mse(r2));

    // Data misfit.
    const Variable pred = model->forward(data_x);
    const Variable data_loss = mse(sub(pred, data_y));

    // Initial condition.
    const Variable Xi = Variable::constant(points.initial);
    const Variable ic_out = model->forward(Xi);
    auto [u0, v0] = config.initial(slice_cols(Xi, 0, 1));
    const Variable ic_loss = add(mse(sub(slice_cols(ic_out, 0, 1), u0)),
                                 mse(sub(slice_cols(ic_out, 1, 2), v0)));

    Variable loss = scale(pde_loss, config.weight_pde);
    loss = add(loss, scale(data_loss, config.weight_data));
    loss = add(loss, scale(ic_loss, config.weight_ic));
    // The loss picked up omega's (1,1) shape through broadcasting guards;
    // reduce to scalar for reporting.
    const double loss_value = sum_all(loss).item();
    if (!std::isfinite(loss_value)) {
      throw NumericsError("inverse training diverged at epoch " +
                          std::to_string(epoch));
    }

    result.omega_history.push_back(square(w).item());
    if (config.log_every > 0 && epoch % config.log_every == 0) {
      log::info() << "inverse epoch " << epoch << " loss " << loss_value
                  << " omega " << result.omega_history.back();
    }

    const std::vector<Variable> grads = grad(loss, params);
    std::vector<Tensor> grad_tensors;
    grad_tensors.reserve(grads.size());
    for (const Variable& g : grads) grad_tensors.push_back(g.value());
    optimizer.step(grad_tensors);

    result.final_loss = loss_value;
    result.data_loss = data_loss.item();
  }

  result.omega = square(w).item();
  result.model = std::move(model);
  return result;
}

}  // namespace qpinn::core
