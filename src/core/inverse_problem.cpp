#include "core/inverse_problem.hpp"

#include <cmath>

#include "core/schrodinger_problem.hpp"
#include "parallel/thread_pool.hpp"
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

namespace {

/// The TDSE with the trainable trap V = 1/2 (w^2)^2 x^2 and a data term.
class InverseHarmonicProblem : public SchrodingerProblem {
 public:
  InverseHarmonicProblem(const InverseHarmonicConfig& config, Variable w)
      : SchrodingerProblem(problem_config(config, w)),
        w_(std::move(w)),
        data_points_(config.data_points),
        data_values_(config.data_values),
        weight_data_(config.weight_data) {}

  std::vector<LossTerm> auxiliary_losses(
      FieldModel& model, const CollocationSet& points) const override {
    std::vector<LossTerm> losses =
        SchrodingerProblem::auxiliary_losses(model, points);
    const Variable pred = model.forward(Variable::constant(data_points_));
    losses.push_back({"data", weight_data_,
                      mse(sub(pred, Variable::constant(data_values_)))});
    return losses;
  }

  std::vector<std::pair<std::string, Variable>> named_parameters()
      const override {
    return {{"w", w_}};
  }

 private:
  static Config problem_config(const InverseHarmonicConfig& config,
                               const Variable& w) {
    Config pc;
    pc.name = "inverse_harmonic";
    pc.domain = config.domain;
    pc.potential = [w](const Variable& x) {
      const Variable omega = square(w);
      return mul(broadcast_to(scale(square(omega), 0.5), x.shape()),
                 square(x));
    };
    pc.initial = config.initial;
    pc.weight_ic = config.weight_ic;
    pc.weight_bc = 0.0;
    pc.weight_norm = 0.0;
    return pc;
  }

  Variable w_;
  Tensor data_points_;
  Tensor data_values_;
  double weight_data_;
};

}  // namespace

InverseTraining make_inverse_training(const InverseHarmonicConfig& config) {
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

  InverseTraining setup;
  setup.model = make_field_model(mc);
  setup.problem = std::make_shared<InverseHarmonicProblem>(
      config,
      Variable::leaf(Tensor::full({1, 1}, std::sqrt(config.omega_guess))));

  TrainConfig& train = setup.train;
  train.epochs = config.epochs;
  train.adam = config.adam;
  // The trainer's PDE term is sum(r^2) / (N * 2), half of the
  // mse(r1) + mse(r2) the objective is written in.
  train.weight_pde = 2.0 * config.weight_pde;
  train.sampling = config.sampling;
  train.sampling.kind = SamplerKind::kLatinHypercube;
  train.sampling.seed = config.seed;
  // Fresh collocation points every epoch prevent residual overfitting.
  train.resample_every = 1;
  train.threads = global_pool().size();
  return setup;
}

double inverse_omega(const Problem& problem) {
  const double w = problem.named_parameters().at(0).second.value()[0];
  return w * w;
}

InverseResult solve_inverse_harmonic(const InverseHarmonicConfig& config) {
  InverseTraining setup = make_inverse_training(config);
  Trainer trainer(setup.problem, setup.model, setup.train);

  InverseResult result;
  result.omega_history.reserve(static_cast<std::size_t>(config.epochs));
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    result.omega_history.push_back(inverse_omega(*setup.problem));
    const EpochRecord record = trainer.step(epoch);
    if (config.log_every > 0 && epoch % config.log_every == 0) {
      log::info() << "inverse epoch " << epoch << " loss "
                  << record.total_loss << " omega "
                  << result.omega_history.back();
    }
    result.final_loss = record.total_loss;
    for (const auto& [name, value] : record.aux_losses) {
      if (name == "data") result.data_loss = value;
    }
  }

  result.omega = inverse_omega(*setup.problem);
  result.model = std::move(setup.model);
  return result;
}

}  // namespace qpinn::core
