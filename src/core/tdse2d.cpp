#include "core/tdse2d.hpp"

#include <cmath>

#include "autodiff/plan.hpp"
#include "core/field_ops.hpp"
#include "core/schrodinger_problem.hpp"
#include "parallel/thread_pool.hpp"
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
  if (n_interior < 8) throw ConfigError("tdse2d: n_interior too small");
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

namespace {

Domain as_domain(const Domain2d& d) {
  d.validate();
  return Domain{d.x_lo, d.x_hi, d.t_lo, d.t_hi, d.y_lo, d.y_hi};
}

/// V(x, y) as a potential op on the (x, y) block. V is never
/// differentiated, so it enters as a constant column. Its fill is a
/// recorded thunk over the block's buffer: the Trainer resamples in place
/// and keeps replaying the plan, so a column computed once at capture
/// would go stale.
PotentialOp host_potential_op(std::function<double(double, double)> v) {
  if (!v) return nullptr;
  return [v = std::move(v)](const Variable& xy) {
    const plan::OpaqueKernel fill = [v](Tensor& out,
                                        const std::vector<Tensor>& in) {
      for (std::int64_t r = 0; r < out.rows(); ++r) {
        out[r] = v(in[0].at(r, 0), in[0].at(r, 1));
      }
    };
    Tensor column(Shape{xy.value().rows(), 1});
    fill(column, {xy.value()});
    plan::record_opaque(column, {xy.value()}, fill);
    return Variable::constant(column);
  };
}

}  // namespace

Tensor latin_hypercube_points_2d(const Domain2d& domain, std::int64_t n,
                                 Rng& rng) {
  return latin_hypercube_points(as_domain(domain), n, rng);
}

Tdse2dTraining make_tdse2d_training(const Tdse2dConfig& config) {
  config.validate();
  const Domain domain = as_domain(config.domain);
  nn::MlpConfig mlp;
  mlp.in_dim = 3;
  mlp.out_dim = 2;
  mlp.hidden = config.hidden;
  mlp.fourier = config.fourier;
  mlp.seed = config.seed;
  InputNormalization norm = InputNormalization::for_domain(
      domain.x_lo, domain.x_hi, domain.t_lo, domain.t_hi);
  norm.y_center = 0.5 * (domain.y_lo + domain.y_hi);
  norm.y_half_span = 0.5 * (domain.y_hi - domain.y_lo);
  // Hard IC psi = psi0(x, y) + (t - t_lo) NN; psi0 gets the (x, y) block.
  const FieldOp psi0 = [initial = config.initial](const Variable& xy) {
    return initial(slice_cols(xy, 0, 1), slice_cols(xy, 1, 2));
  };
  SchrodingerProblem::Config pc;
  pc.name = "tdse2d";
  pc.domain = domain;
  pc.potential = host_potential_op(config.potential);
  pc.initial = psi0;
  pc.weight_ic = 0.0;  // the hard IC is exact
  pc.weight_bc = 0.0;  // no walls in 2-D

  Tdse2dTraining setup;
  setup.model = std::make_shared<FieldModel>(
      std::make_unique<nn::Mlp>(mlp), HardIc{psi0, domain.t_lo}, norm);
  setup.problem = std::make_shared<SchrodingerProblem>(pc);
  TrainConfig& train = setup.train;
  train.epochs = config.epochs;
  train.adam.lr = config.lr;
  train.lr_decay = config.lr_decay;
  train.lr_decay_every = config.lr_decay_every;
  // weight_pde stays 1: the Trainer's sum(r^2) / (N * 2) is the mse of
  // the (N, 2) residual.
  train.sampling.kind = SamplerKind::kLatinHypercube;
  train.sampling.n_interior_x = config.n_interior;
  train.sampling.n_interior_t = 1;
  train.sampling.n_initial = 0;
  train.sampling.seed = config.seed;
  train.resample_every = 1;
  train.threads = global_pool().size();
  train.validate();  // epochs and the learning-rate schedule
  return setup;
}

Tdse2dSolver::Tdse2dSolver(Tdse2dConfig config)
    : config_(std::move(config)), setup_(make_tdse2d_training(config_)) {}

Tensor Tdse2dSolver::residual_at(const Tensor& points) {
  return setup_.problem->residual(*setup_.model, Variable::leaf(points))
      .value();
}

Tensor Tdse2dSolver::evaluate(const Tensor& points) {
  return setup_.model->evaluate(points);
}

double Tdse2dSolver::relative_l2(std::int64_t nx, std::int64_t ny,
                                 std::int64_t nt) {
  QPINN_CHECK(nx >= 2 && ny >= 2 && nt >= 2, "tdse2d: metric grid too small");
  const Domain2d& d = config_.domain;
  const Tensor xs = Tensor::linspace(d.x_lo, d.x_hi, nx);
  const Tensor ys = Tensor::linspace(d.y_lo, d.y_hi, ny);
  const Tensor ts = Tensor::linspace(d.t_lo, d.t_hi, nt);
  Tensor points(Shape{nx * ny * nt, 3});  // x fastest, then y, then t
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    points.at(r, 0) = xs[r % nx];
    points.at(r, 1) = ys[r / nx % ny];
    points.at(r, 2) = ts[r / (nx * ny)];
  }
  const Tensor pred = evaluate(points);
  double num = 0.0, den = 0.0;
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    const quantum::Complex exact = config_.reference(
        points.at(r, 0), points.at(r, 1), points.at(r, 2));
    num += std::norm(quantum::Complex(pred.at(r, 0), pred.at(r, 1)) - exact);
    den += std::norm(exact);
  }
  QPINN_CHECK(den > 0.0, "tdse2d: reference identically zero on the grid");
  return std::sqrt(num / den);
}

Tdse2dResult Tdse2dSolver::fit() {
  Stopwatch watch;
  Trainer trainer(setup_.problem, setup_.model, setup_.train);
  Tdse2dResult result;
  result.loss_history.reserve(static_cast<std::size_t>(config_.epochs));
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const double loss = trainer.step(epoch).total_loss;
    result.loss_history.push_back(loss);
    if (config_.log_every > 0 && epoch % config_.log_every == 0) {
      log::info() << "tdse2d epoch " << epoch << " loss " << loss;
    }
  }
  result.final_loss = result.loss_history.back();
  result.final_l2 = relative_l2(24, 24, 8);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace qpinn::core
