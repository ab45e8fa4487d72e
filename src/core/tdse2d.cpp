#include "core/tdse2d.hpp"

#include <cmath>

#include "autodiff/grad.hpp"
#include "core/field_ops.hpp"
#include "optim/adam.hpp"
#include "optim/scheduler.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace qpinn::core {

using autodiff::Variable;
using namespace autodiff;

void Domain2d::validate() const {
  if (!(x_hi > x_lo) || !(y_hi > y_lo) || !(t_hi > t_lo)) {
    throw ConfigError("Domain2d must have positive spans in x, y, t");
  }
}

void Tdse2dConfig::validate() const {
  domain.validate();
  if (!reference) throw ConfigError("tdse2d: reference field required");
  if (!initial) throw ConfigError("tdse2d: initial op required");
  if (epochs < 1) throw ConfigError("tdse2d: epochs must be >= 1");
  if (lr <= 0.0) throw ConfigError("tdse2d: lr must be positive");
  if (lr_decay <= 0.0 || lr_decay > 1.0) {
    throw ConfigError("tdse2d: lr_decay must be in (0, 1]");
  }
  if (lr_decay_every < 1) {
    throw ConfigError("tdse2d: lr_decay_every must be >= 1");
  }
  if (n_interior < 8) throw ConfigError("tdse2d: n_interior too small");
  if (hidden.empty()) throw ConfigError("tdse2d: need hidden layers");
}

SpaceTimeField2d free_gaussian_packet_2d(double x0, double kx, double sigma_x,
                                         double y0, double ky,
                                         double sigma_y) {
  const auto fx = quantum::free_gaussian_packet(x0, kx, sigma_x);
  const auto fy = quantum::free_gaussian_packet(y0, ky, sigma_y);
  return [fx, fy](double x, double y, double t) {
    return fx(x, t) * fy(y, t);
  };
}

FieldOp2d gaussian_packet_2d_ic(double x0, double kx, double sigma_x,
                                double y0, double ky, double sigma_y) {
  const FieldOp icx = gaussian_packet_ic(x0, kx, sigma_x);
  const FieldOp icy = gaussian_packet_ic(y0, ky, sigma_y);
  return [icx, icy](const Variable& x, const Variable& y) {
    auto [ux, vx] = icx(x);
    auto [uy, vy] = icy(y);
    // Complex product (ux + i vx)(uy + i vy).
    return std::make_pair(sub(mul(ux, uy), mul(vx, vy)),
                          add(mul(ux, vy), mul(vx, uy)));
  };
}

Tensor latin_hypercube_points_2d(const Domain2d& domain, std::int64_t n,
                                 Rng& rng) {
  domain.validate();
  QPINN_CHECK(n >= 1, "latin_hypercube_points_2d needs n >= 1");
  const auto perm_x = rng.permutation(static_cast<std::size_t>(n));
  const auto perm_y = rng.permutation(static_cast<std::size_t>(n));
  const auto perm_t = rng.permutation(static_cast<std::size_t>(n));
  Tensor out(Shape{n, 3});
  double* p = out.data();
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::int64_t r = 0; r < n; ++r) {
    const auto stratum = [&](const std::vector<std::size_t>& perm) {
      return (static_cast<double>(perm[static_cast<std::size_t>(r)]) +
              rng.uniform()) *
             inv_n;
    };
    p[3 * r] = domain.x_lo + (domain.x_hi - domain.x_lo) * stratum(perm_x);
    p[3 * r + 1] = domain.y_lo + (domain.y_hi - domain.y_lo) * stratum(perm_y);
    p[3 * r + 2] = domain.t_lo + (domain.t_hi - domain.t_lo) * stratum(perm_t);
  }
  return out;
}

Tdse2dSolver::Tdse2dSolver(Tdse2dConfig config)
    : config_(std::move(config)), rng_(config_.seed ^ 0x2d2d2dULL) {
  config_.validate();
  nn::MlpConfig mlp;
  mlp.in_dim = 3;
  mlp.out_dim = 2;
  mlp.hidden = config_.hidden;
  mlp.activation = config_.activation;
  mlp.fourier = config_.fourier;
  mlp.seed = config_.seed;
  net_ = std::make_unique<nn::Mlp>(mlp);
}

Variable Tdse2dSolver::network_input(const Variable& X) const {
  // Normalize each coordinate to [-1, 1] before the backbone.
  const Domain2d& d = config_.domain;
  auto normalized = [&](std::int64_t c, double lo, double hi) {
    return scale(add_scalar(slice_cols(X, c, c + 1), -0.5 * (lo + hi)),
                 2.0 / (hi - lo));
  };
  return concat_cols({normalized(0, d.x_lo, d.x_hi),
                      normalized(1, d.y_lo, d.y_hi),
                      normalized(2, d.t_lo, d.t_hi)});
}

Variable Tdse2dSolver::forward(const Variable& X) {
  const Variable raw = net_->forward(network_input(X));

  // Hard IC: psi = psi0(x, y) + (t - t_lo) * NN.
  const Variable ramp = add_scalar(slice_cols(X, 2, 3), -config_.domain.t_lo);
  auto [u0, v0] = config_.initial(slice_cols(X, 0, 1), slice_cols(X, 1, 2));
  const Variable u = add(u0, mul(ramp, slice_cols(raw, 0, 1)));
  const Variable v = add(v0, mul(ramp, slice_cols(raw, 1, 2)));
  return concat_cols({u, v});
}

std::pair<nn::Jet, nn::Jet> Tdse2dSolver::jets(const Variable& X) {
  // As FieldModel::derivatives, with the ramp along coordinate 2 (t).
  const Domain2d& d = config_.domain;
  const Variable Xc = X.detach();
  const std::vector<double> direction{2.0 / (d.x_hi - d.x_lo),
                                      2.0 / (d.y_hi - d.y_lo),
                                      2.0 / (d.t_hi - d.t_lo)};
  const nn::Jet raw = net_->forward_jet(
      nn::input_jet(network_input(Xc), {2, 2, 1}, direction));
  const Variable Xl = Variable::leaf(X.value());
  auto [u0, v0] = config_.initial(slice_cols(Xl, 0, 1), slice_cols(Xl, 1, 2));
  const Variable ramp = add_scalar(slice_cols(Xc, 2, 3), -d.t_lo);
  const auto field = [&](const Variable& psi0, std::int64_t c) {
    // psi0 has no parameters, so its derivatives are data.
    const nn::Jet data =
        nn::partial_jet(  // lint-allow: nested-reverse-derivatives
            psi0, Xl, {2, 2, 0});
    return nn::hard_ic(data.detached(), ramp, raw.slice_cols(c, c + 1), 2);
  };
  return {field(u0, 0), field(v0, 1)};
}

Variable Tdse2dSolver::residual(const Variable& X) {
  const auto [u, v] = jets(X);
  const Shape column = u.value.shape();
  const Variable u_t = nn::or_zeros(u.d1[2], column);
  const Variable v_t = nn::or_zeros(v.d1[2], column);
  const Variable lap_u = add(nn::or_zeros(u.d2[0], column),
                             nn::or_zeros(u.d2[1], column));
  const Variable lap_v = add(nn::or_zeros(v.d2[0], column),
                             nn::or_zeros(v.d2[1], column));

  Variable r1 = add(neg(v_t), scale(lap_u, 0.5));
  Variable r2 = add(u_t, scale(lap_v, 0.5));
  if (config_.potential) {
    // V enters multiplicatively (never differentiated), so a constant
    // column built from the batch values is exact.
    Tensor v_values(Shape{X.value().rows(), 1});
    const double* px = X.value().data();
    for (std::int64_t r = 0; r < v_values.rows(); ++r) {
      v_values[r] = config_.potential(px[3 * r], px[3 * r + 1]);
    }
    const Variable v_pot = Variable::constant(v_values);
    r1 = sub(r1, mul(v_pot, u.value));
    r2 = sub(r2, mul(v_pot, v.value));
  }
  return concat_cols({r1, r2});
}

Tensor Tdse2dSolver::residual_at(const Tensor& points) {
  QPINN_CHECK_SHAPE(points.rank() == 2 && points.cols() == 3,
                    "tdse2d: points must be (N, 3)");
  const Variable X = Variable::leaf(points.clone());
  return residual(X).value();
}

Tensor Tdse2dSolver::evaluate(const Tensor& points) {
  QPINN_CHECK_SHAPE(points.rank() == 2 && points.cols() == 3,
                    "tdse2d: points must be (N, 3)");
  NoGradGuard guard;
  return forward(Variable::constant(points)).value();
}

double Tdse2dSolver::relative_l2(std::int64_t nx, std::int64_t ny,
                                 std::int64_t nt) {
  QPINN_CHECK(nx >= 2 && ny >= 2 && nt >= 2, "tdse2d: metric grid too small");
  const Domain2d& d = config_.domain;
  const Tensor xs = Tensor::linspace(d.x_lo, d.x_hi, nx);
  const Tensor ys = Tensor::linspace(d.y_lo, d.y_hi, ny);
  const Tensor ts = Tensor::linspace(d.t_lo, d.t_hi, nt);
  Tensor points(Shape{nx * ny * nt, 3});
  double* p = points.data();
  for (std::int64_t k = 0; k < nt; ++k) {
    for (std::int64_t j = 0; j < ny; ++j) {
      for (std::int64_t i = 0; i < nx; ++i) {
        *p++ = xs[i];
        *p++ = ys[j];
        *p++ = ts[k];
      }
    }
  }
  const Tensor pred = evaluate(points);
  double num = 0.0, den = 0.0;
  const double* pp = pred.data();
  const double* pq = points.data();
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    const quantum::Complex exact =
        config_.reference(pq[3 * r], pq[3 * r + 1], pq[3 * r + 2]);
    const double du = pp[2 * r] - exact.real();
    const double dv = pp[2 * r + 1] - exact.imag();
    num += du * du + dv * dv;
    den += std::norm(exact);
  }
  QPINN_CHECK(den > 0.0, "tdse2d: reference identically zero on the grid");
  return std::sqrt(num / den);
}

Tdse2dResult Tdse2dSolver::fit() {
  Stopwatch watch;
  std::vector<Variable> params = net_->parameters();
  optim::AdamConfig adam_config;
  adam_config.lr = config_.lr;
  optim::Adam optimizer(params, adam_config);

  Tdse2dResult result;
  result.loss_history.reserve(static_cast<std::size_t>(config_.epochs));
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    optimizer.set_lr(optim::decayed_lr(config_.lr, config_.lr_decay,
                                       config_.lr_decay_every, epoch));

    const Tensor points =
        latin_hypercube_points_2d(config_.domain, config_.n_interior, rng_);
    const Variable X = Variable::leaf(points, /*requires_grad=*/true);
    const Variable loss = mse(residual(X));
    const double loss_value = loss.item();
    if (!std::isfinite(loss_value)) {
      throw NumericsError("tdse2d training diverged at epoch " +
                          std::to_string(epoch));
    }
    result.loss_history.push_back(loss_value);
    if (config_.log_every > 0 && epoch % config_.log_every == 0) {
      log::info() << "tdse2d epoch " << epoch << " loss " << loss_value;
    }

    const std::vector<Variable> grads = grad(loss, params);
    std::vector<Tensor> grad_tensors;
    grad_tensors.reserve(grads.size());
    for (const Variable& g : grads) grad_tensors.push_back(g.value());
    optimizer.step(grad_tensors);
  }
  result.final_loss = result.loss_history.back();
  result.final_l2 = relative_l2(24, 24, 8);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace qpinn::core
