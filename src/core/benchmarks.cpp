#include "core/benchmarks.hpp"

#include <cmath>
#include <numbers>

#include "core/trainer.hpp"
#include "fdm/interpolate.hpp"
#include "fdm/split_step.hpp"
#include "quantum/potentials.hpp"

namespace qpinn::core {

namespace {
void apply_overrides(SchrodingerProblem::Config& config,
                     const BenchmarkOverrides& overrides) {
  config.weight_norm = overrides.weight_norm;
  config.weight_ic = overrides.weight_ic;
  config.weight_bc = overrides.weight_bc;
}
}  // namespace

std::shared_ptr<SchrodingerProblem> make_free_packet_problem(
    const BenchmarkOverrides& overrides) {
  constexpr double x0 = -1.0, k0 = 1.0, sigma0 = 0.6;
  SchrodingerProblem::Config config;
  config.name = "free_packet";
  config.domain = Domain{-4.0, 4.0, 0.0, 0.75};
  config.potential = nullptr;  // V = 0
  config.initial = gaussian_packet_ic(x0, k0, sigma0);
  config.reference_field = quantum::free_gaussian_packet(x0, k0, sigma0);
  config.periodic_x = false;
  config.norm_target = 1.0;
  apply_overrides(config, overrides);
  return std::make_shared<SchrodingerProblem>(std::move(config));
}

std::shared_ptr<SchrodingerProblem> make_ho_coherent_problem(
    const BenchmarkOverrides& overrides) {
  constexpr double x0 = 0.5;
  SchrodingerProblem::Config config;
  config.name = "ho_coherent";
  config.domain = Domain{-5.0, 5.0, 0.0, 1.5};
  config.potential = harmonic_potential_op(1.0);
  config.initial = coherent_state_ic(x0);
  config.reference_field = quantum::ho_coherent_state(x0);
  config.periodic_x = false;
  config.norm_target = 1.0;
  apply_overrides(config, overrides);
  return std::make_shared<SchrodingerProblem>(std::move(config));
}

std::shared_ptr<SchrodingerProblem> make_well_superposition_problem(
    const BenchmarkOverrides& overrides) {
  constexpr double width = 1.0;
  const double c = 1.0 / std::numbers::sqrt2;
  SchrodingerProblem::Config config;
  config.name = "well_beat";
  config.domain = Domain{0.0, width, 0.0, 0.4};
  config.potential = nullptr;  // box walls via Dirichlet loss
  config.initial = well_superposition_ic(width, {c, c});
  config.reference_field = quantum::well_superposition(
      width, {quantum::Complex(c, 0.0), quantum::Complex(c, 0.0)});
  config.periodic_x = false;
  config.norm_target = 1.0;
  apply_overrides(config, overrides);
  return std::make_shared<SchrodingerProblem>(std::move(config));
}

std::shared_ptr<SchrodingerProblem> make_nls_soliton_problem(
    const BenchmarkOverrides& overrides) {
  constexpr double amplitude = 1.0, velocity = 0.5;
  SchrodingerProblem::Config config;
  config.name = "nls_soliton";
  config.domain = Domain{-5.0, 5.0, 0.0, 0.5};
  config.potential = nullptr;
  config.nonlinearity = -1.0;  // focusing NLS
  config.initial = soliton_ic(amplitude, velocity);
  config.reference_field = quantum::nls_bright_soliton(amplitude, velocity);
  config.periodic_x = true;
  // mass = integral a^2 sech^2(a x) dx = 2 a.
  config.norm_target = 2.0 * amplitude;
  apply_overrides(config, overrides);
  return std::make_shared<SchrodingerProblem>(std::move(config));
}

std::shared_ptr<SchrodingerProblem> make_nls_raissi_problem(
    const BenchmarkOverrides& overrides) {
  const double t_final = std::numbers::pi / 2.0;

  // Reference by split-step Fourier (no closed form for the 2 sech x
  // bound state; it is a higher-order soliton).
  fdm::SplitStepConfig solver;
  solver.grid = fdm::Grid1d{-5.0, 5.0, 256, /*periodic=*/true};
  solver.steps = 1600;
  solver.dt = t_final / static_cast<double>(solver.steps);
  solver.nonlinearity = -1.0;
  solver.store_every = 8;
  auto evolution = std::make_shared<fdm::WaveEvolution>(solve_split_step(
      solver, [](double x) { return quantum::nls_raissi_initial(x); }));

  SchrodingerProblem::Config config;
  config.name = "nls_raissi";
  config.domain = Domain{-5.0, 5.0, 0.0, t_final};
  config.potential = nullptr;
  config.nonlinearity = -1.0;
  config.initial = sech_ic(2.0);
  config.reference_field =
      fdm::make_interpolant(std::move(evolution), /*periodic_x=*/true);
  config.periodic_x = true;
  // mass = integral 4 sech^2 x dx = 8.
  config.norm_target = 8.0;
  apply_overrides(config, overrides);
  return std::make_shared<SchrodingerProblem>(std::move(config));
}

FieldModelConfig default_model_config(const SchrodingerProblem& problem,
                                      std::uint64_t seed) {
  FieldModelConfig config;
  config.hidden = {64, 64, 64, 64};
  config.fourier = nn::FourierConfig{64, 1.0};
  config.x_period =
      problem.periodic_x() ? problem.domain().x_span() : 0.0;
  const Domain& d = problem.domain();
  config.normalization =
      InputNormalization::for_domain(d.x_lo, d.x_hi, d.t_lo, d.t_hi);
  config.seed = seed;
  return config;
}

std::shared_ptr<FieldModel> make_model_for(const SchrodingerProblem& problem,
                                           std::uint64_t seed, bool hard_ic) {
  FieldModelConfig config = default_model_config(problem, seed);
  if (hard_ic) {
    config.hard_ic = HardIc{problem.config().initial, problem.domain().t_lo};
  }
  return make_field_model(config);
}

TrainConfig default_train_config(std::int64_t epochs, std::uint64_t seed) {
  TrainConfig config;
  config.epochs = epochs;
  config.adam.lr = 2e-3;
  config.lr_decay = 0.9;
  config.lr_decay_every = std::max<std::int64_t>(1, epochs / 4);
  config.sampling.kind = SamplerKind::kLatinHypercube;
  config.sampling.n_interior_x = 30;
  config.sampling.n_interior_t = 30;
  config.sampling.n_initial = 64;
  config.sampling.n_boundary = 32;
  config.sampling.seed = seed;
  config.resample_every = 1;
  config.metric_nx = 64;
  config.metric_nt = 24;
  return config;
}

}  // namespace qpinn::core
