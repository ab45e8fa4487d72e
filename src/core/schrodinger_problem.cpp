#include "core/schrodinger_problem.hpp"

#include "util/error.hpp"

namespace qpinn::core {

using autodiff::Variable;
using namespace autodiff;

void SchrodingerProblem::Config::validate() const {
  domain.validate();
  if (!domain.has_t()) throw ConfigError("SchrodingerProblem: needs a t axis");
  if (!initial) throw ConfigError("SchrodingerProblem: initial op required");
  if (weight_ic < 0.0 || weight_bc < 0.0 || weight_norm < 0.0) {
    throw ConfigError("SchrodingerProblem: loss weights must be >= 0");
  }
  if (norm_quad_nx < 2 || norm_quad_nt < 1) {
    throw ConfigError("SchrodingerProblem: invalid norm quadrature sizes");
  }
}

SchrodingerProblem::SchrodingerProblem(Config config)
    : config_(std::move(config)) {
  config_.validate();
}

Variable SchrodingerProblem::residual(FieldModel& model,
                                      const Variable& X) const {
  const auto [u, v, u_t, v_t, u_xx, v_xx] = model.derivatives(X);

  // Effective potential V + g |psi|^2.
  Variable v_eff;
  if (config_.potential) {
    v_eff = config_.potential(slice_cols(X, 0, X.value().cols() - 1));
  }
  if (config_.nonlinearity != 0.0) {
    const Variable density = add(square(u), square(v));
    const Variable cubic = scale(density, config_.nonlinearity);
    v_eff = v_eff.defined() ? add(v_eff, cubic) : cubic;
  }

  Variable r1 = add(neg(v_t), scale(u_xx, 0.5));
  Variable r2 = add(u_t, scale(v_xx, 0.5));
  if (v_eff.defined()) {
    r1 = sub(r1, mul(v_eff, u));
    r2 = sub(r2, mul(v_eff, v));
  }
  return concat_cols({r1, r2});
}

std::vector<LossTerm> SchrodingerProblem::auxiliary_losses(
    FieldModel& model, const CollocationSet& points) const {
  std::vector<LossTerm> losses;

  // Initial condition (redundant — and skipped — under a hard-IC model).
  if (config_.weight_ic > 0.0 && !model.has_hard_ic()) {
    QPINN_CHECK(points.initial.rank() == 2,
                "IC loss requires initial collocation points");
    const Variable Xi = Variable::constant(points.initial);
    const Variable out = model.forward(Xi);
    auto [u0, v0] = config_.initial(slice_cols(Xi, 0, 1));
    const Variable du = sub(slice_cols(out, 0, 1), u0);
    const Variable dv = sub(slice_cols(out, 1, 2), v0);
    losses.push_back(
        {"ic", config_.weight_ic, add(mse(du), mse(dv))});
  }

  // Soft Dirichlet walls (periodic problems enforce BCs in the model).
  if (config_.weight_bc > 0.0 && !config_.periodic_x &&
      points.boundary.rank() == 2) {
    const Variable Xb = Variable::constant(points.boundary);
    const Variable out = model.forward(Xb);
    losses.push_back({"bc", config_.weight_bc, mse(out)});
  }

  if (config_.weight_norm > 0.0) {
    losses.push_back(
        {"norm", config_.weight_norm, norm_conservation_loss(model)});
  }
  return losses;
}

Variable SchrodingerProblem::norm_conservation_loss(FieldModel& model) const {
  const Domain& d = config_.domain;
  const std::int64_t nx = config_.norm_quad_nx;
  const std::int64_t nt = config_.norm_quad_nt;

  // Quadrature points: nt time slices, each with the same nx x-grid,
  // rows grouped by slice so a reshape recovers (nt, nx).
  const Tensor quad = grid_points(d, nx, nt);
  const Variable weights = Variable::constant(trapezoid_weights(d, nx));
  const Variable Xq = Variable::constant(quad);
  const Variable out = model.forward(Xq);
  const Variable density =
      add(square(slice_cols(out, 0, 1)), square(slice_cols(out, 1, 2)));
  const Variable per_slice = reshape(density, Shape{nt, nx});
  const Variable norms = matmul(per_slice, weights);
  return mse(add_scalar(norms, -config_.norm_target));
}

}  // namespace qpinn::core
