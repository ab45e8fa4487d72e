#include "core/eigen_pinn.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
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

/// H phi = E phi on a t-less domain, with E a leaf the problem owns.
class EigenProblem : public Problem {
 public:
  EigenProblem(const EigenPinnConfig& config, double energy_guess,
               Tensor anchor_weight,
               const std::vector<EigenState>& lower_states)
      : config_(config),
        energy_guess_(energy_guess),
        energy_(Variable::leaf(Tensor::full({1, 1}, energy_guess))),
        anchor_weight_(std::move(anchor_weight)),
        grid_(grid_points(domain(), config.n_collocation, /*nt=*/1)),
        weights_(trapezoid_weights(domain(), config.n_collocation)) {
    // Previously found states as constants for the deflation penalties.
    const double* x = grid_.data();
    for (const EigenState& state : lower_states) {
      const bool same_grid =
          state.psi.size() == state.x.size() &&
          std::equal(state.x.begin(), state.x.end(), x, x + grid_.numel());
      QPINN_CHECK(same_grid, "lower state sampled on a different grid");
      lower_.push_back(Tensor::from_vector(state.psi, grid_.shape()));
    }
  }

  std::string name() const override { return "eigen"; }
  Domain domain() const override {
    return {config_.x_lo, config_.x_hi, 0.0, 0.0};
  }
  Variable residual(FieldModel& model, const Variable& X) const override {
    const FieldDerivatives d = model.derivatives(X);
    Variable h_phi = scale(d.u_xx, -0.5);
    if (config_.potential) {
      h_phi = add(h_phi, mul(config_.potential(X.detach()), d.u));
    }
    return sub(h_phi, mul(energy_, d.u));
  }
  std::int64_t residual_dim() const override { return 1; }

  std::vector<LossTerm> auxiliary_losses(
      FieldModel& model, const CollocationSet&) const override {
    const Variable phi = model.forward(Variable::constant(grid_));
    const Variable weights = Variable::constant(weights_);
    const Variable norm = sum_all(mul(weights, square(phi)));
    std::vector<LossTerm> losses;
    losses.push_back(
        {"norm", config_.weight_norm, square(add_scalar(norm, -1.0))});
    for (std::size_t k = 0; k < lower_.size(); ++k) {
      const Variable overlap =
          sum_all(mul(weights, mul(phi, Variable::constant(lower_[k]))));
      losses.push_back({"overlap" + std::to_string(k), config_.weight_ortho,
                        square(overlap)});
    }
    const Variable anchor = square(add_scalar(energy_, -energy_guess_));
    losses.push_back(
        {"anchor", 1.0, mul(Variable::constant(anchor_weight_), anchor)});
    return losses;
  }

  std::vector<std::pair<std::string, Variable>> named_parameters()
      const override {
    return {{"E", energy_}};
  }

  const Tensor& grid() const { return grid_; }
  const Tensor& weights() const { return weights_; }

 private:
  EigenPinnConfig config_;
  double energy_guess_;
  Variable energy_;
  Tensor anchor_weight_;
  Tensor grid_;     ///< (n, 1) x-linspace: the interior and the quadrature
  Tensor weights_;  ///< its trapezoid weights
  std::vector<Tensor> lower_;
};

}  // namespace

EigenTraining make_eigen_training(const EigenPinnConfig& config,
                                  double energy_guess,
                                  const std::vector<EigenState>& lower_states) {
  config.validate();
  EigenTraining setup;
  setup.anchor_epochs = config.anchor_epochs;
  setup.anchor_weight = Tensor::full({1, 1}, config.weight_energy_anchor);
  setup.problem = std::make_shared<EigenProblem>(
      config, energy_guess, setup.anchor_weight, lower_states);

  // Fresh network per state; input x, output raw amplitude.
  nn::MlpConfig mlp;
  mlp.in_dim = 1;
  mlp.out_dim = 1;
  mlp.hidden = config.hidden;
  mlp.activation = config.activation;
  mlp.seed = config.seed + 7919 * (lower_states.size() + 1);
  setup.model = std::make_shared<FieldModel>(std::make_unique<nn::Mlp>(mlp),
                                             config.x_lo, config.x_hi);

  TrainConfig& train = setup.train;
  train.epochs = config.epochs;
  train.adam = config.adam;
  // The trainer's PDE term is sum(r^2) / N with one residual column.
  train.weight_pde = config.weight_residual;
  train.sampling.n_interior_x = config.n_collocation;
  train.sampling.n_initial = 0;
  train.threads = global_pool().size();
  return setup;
}

EpochRecord eigen_step(Trainer& trainer, const EigenTraining& setup,
                       std::int64_t epoch) {
  if (epoch >= setup.anchor_epochs) {
    Tensor weight = setup.anchor_weight;  // shares the plan's storage
    weight[0] = 0.0;
  }
  return trainer.step(epoch);
}

EigenState EigenPinn::solve_state(
    double energy_guess, const std::vector<EigenState>& lower_states) const {
  const EigenTraining setup =
      make_eigen_training(config_, energy_guess, lower_states);
  Trainer trainer(setup.problem, setup.model, setup.train);
  const auto& problem = static_cast<const EigenProblem&>(*setup.problem);
  const auto energy = [&] {
    return problem.named_parameters().at(0).second.value()[0];
  };
  EigenState state;
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const EpochRecord record = eigen_step(trainer, setup, epoch);
    state.residual_loss = record.pde_loss / config_.weight_residual;
    if (config_.log_every > 0 && epoch % config_.log_every == 0) {
      log::info() << "eigen state " << lower_states.size() << " epoch "
                  << epoch << " loss " << record.total_loss << " E "
                  << energy();
    }
  }

  // Extract the final normalized, sign-fixed wavefunction.
  state.energy = energy();
  const Tensor& xs = problem.grid();
  const Tensor psi = setup.model->evaluate(xs);
  const double* end = psi.data() + psi.numel();
  const double norm =
      std::sqrt(kernels::dot(kernels::mul(problem.weights(), psi), psi));
  QPINN_CHECK(norm > 1e-12, "eigen-PINN collapsed to the zero function");
  const double* first = std::find_if(
      psi.data(), end, [](double v) { return std::abs(v) > 1e-6; });
  const double sign = (first != end && *first < 0.0) ? -1.0 : 1.0;
  state.x.assign(xs.data(), xs.data() + xs.numel());
  for (const double* p = psi.data(); p != end; ++p) {
    state.psi.push_back(sign * *p / norm);
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
