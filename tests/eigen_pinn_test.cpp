#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "autodiff/plan.hpp"
#include "autodiff/precision.hpp"
#include "core/eigen_pinn.hpp"
#include "quantum/potentials.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

EigenPinnConfig box_config() {
  EigenPinnConfig config;
  config.x_lo = 0.0;
  config.x_hi = 1.0;
  config.n_collocation = 64;
  config.hidden = {16, 16};
  config.epochs = 1200;
  config.adam.lr = 5e-3;
  config.seed = 3;
  return config;
}

TEST(EigenPinn, BoxGroundStateEnergy) {
  const EigenPinn solver(box_config());
  const double e1 = quantum::infinite_well_eigenvalue(1, 1.0);
  const EigenState state = solver.solve_state(e1 * 1.1, {});
  EXPECT_NEAR(state.energy, e1, 0.05 * e1);
  // Wavefunction close to sqrt(2) sin(pi x) up to sign (sign is fixed
  // positive by construction).
  double max_err = 0.0;
  for (std::size_t i = 0; i < state.x.size(); ++i) {
    const double exact =
        std::sqrt(2.0) * std::sin(std::numbers::pi * state.x[i]);
    max_err = std::max(max_err, std::abs(state.psi[i] - exact));
  }
  EXPECT_LT(max_err, 0.1);
}

TEST(EigenPinn, WavefunctionNormalizedAndZeroAtWalls) {
  const EigenPinn solver(box_config());
  const EigenState state = solver.solve_state(
      quantum::infinite_well_eigenvalue(1, 1.0), {});
  EXPECT_NEAR(state.psi.front(), 0.0, 1e-12);
  EXPECT_NEAR(state.psi.back(), 0.0, 1e-12);
  const double dx = state.x[1] - state.x[0];
  double norm = 0.0;
  for (std::size_t i = 0; i < state.psi.size(); ++i) {
    const double w = (i == 0 || i + 1 == state.psi.size()) ? 0.5 : 1.0;
    norm += w * state.psi[i] * state.psi[i] * dx;
  }
  EXPECT_NEAR(norm, 1.0, 1e-6);  // normalized in extraction
}

TEST(EigenPinn, DeflationFindsFirstExcitedState) {
  EigenPinnConfig config = box_config();
  config.epochs = 1500;
  const EigenPinn solver(config);
  const double e1 = quantum::infinite_well_eigenvalue(1, 1.0);
  const double e2 = quantum::infinite_well_eigenvalue(2, 1.0);
  const auto states = solver.solve_spectrum({e1 * 1.05, e2 * 0.95});
  ASSERT_EQ(states.size(), 2u);
  EXPECT_NEAR(states[0].energy, e1, 0.05 * e1);
  EXPECT_NEAR(states[1].energy, e2, 0.08 * e2);
  // Orthogonality of the recovered states.
  const double dx = states[0].x[1] - states[0].x[0];
  double overlap = 0.0;
  for (std::size_t i = 0; i < states[0].psi.size(); ++i) {
    overlap += states[0].psi[i] * states[1].psi[i] * dx;
  }
  EXPECT_LT(std::abs(overlap), 0.1);
}

TEST(EigenPinn, ConfigValidation) {
  EigenPinnConfig config = box_config();
  config.x_hi = config.x_lo;
  EXPECT_THROW(EigenPinn{config}, ConfigError);
  config = box_config();
  config.n_collocation = 4;
  EXPECT_THROW(EigenPinn{config}, ConfigError);
  config = box_config();
  config.weight_residual = 0.0;
  EXPECT_THROW(EigenPinn{config}, ConfigError);
  config = box_config();
  config.weight_ortho = -1.0;
  EXPECT_THROW(EigenPinn{config}, ConfigError);
}

TEST(EigenPinn, SpectrumNeedsGuesses) {
  const EigenPinn solver(box_config());
  EXPECT_THROW(solver.solve_spectrum({}), ValueError);
}

TEST(EigenPinn, DeflationRejectsALowerStateFromAnotherGrid) {
  // Same n_collocation, other interval: the lengths agree, the x do not.
  const EigenPinn solver(box_config());
  EigenState other;
  const Tensor xs = Tensor::linspace(0.0, 2.0, 64);
  other.x.assign(xs.data(), xs.data() + 64);
  other.psi.assign(64, 0.1);
  EXPECT_THROW(solver.solve_state(5.0, {other}), ValueError);
  other.x.pop_back();
  EXPECT_THROW(solver.solve_state(5.0, {other}), ValueError);
}

// ---- training through the Trainer ----------------------------------------

class PrecisionGuard {
 public:
  explicit PrecisionGuard(autodiff::Precision p)
      : saved_(autodiff::precision_mode()) {
    autodiff::set_precision_mode(p);
  }
  ~PrecisionGuard() { autodiff::set_precision_mode(saved_); }

 private:
  autodiff::Precision saved_;
};

constexpr std::int64_t kEpochs = 8;
constexpr std::int64_t kAnchorEpochs = 4;

/// A harmonic trap with one lower state, so every aux term and the
/// potential run; the anchor is released halfway.
EigenPinnConfig trap_config() {
  EigenPinnConfig config = box_config();
  config.x_lo = -4.0;
  config.x_hi = 4.0;
  config.n_collocation = 32;
  config.potential = harmonic_potential_op(1.0);
  config.epochs = kEpochs;
  config.anchor_epochs = kAnchorEpochs;
  return config;
}

/// The HO ground state on trap_config's grid.
EigenState ground_state() {
  const EigenPinnConfig config = trap_config();
  const Tensor xs =
      Tensor::linspace(config.x_lo, config.x_hi, config.n_collocation);
  EigenState state;
  for (std::int64_t i = 0; i < xs.numel(); ++i) {
    state.x.push_back(xs[i]);
    state.psi.push_back(std::pow(std::numbers::pi, -0.25) *
                        std::exp(-0.5 * xs[i] * xs[i]));
  }
  return state;
}

/// The epoch records of kEpochs eigen_step epochs of the first excited
/// state, and every trained value (the model's, then E).
std::pair<std::vector<EpochRecord>, std::vector<double>> trajectory(
    GraphMode graph, std::size_t shards) {
  EigenTraining setup =
      make_eigen_training(trap_config(), 1.6, {ground_state()});
  setup.train.graph = graph;
  setup.train.threads = shards;
  Trainer trainer(setup.problem, setup.model, setup.train);
  std::vector<EpochRecord> records;
  for (std::int64_t e = 0; e < kEpochs; ++e) {
    records.push_back(eigen_step(trainer, setup, e));
  }
  std::vector<double> values;
  std::vector<autodiff::Variable> params = setup.model->parameters();
  for (const auto& [name, leaf] : setup.problem->named_parameters()) {
    EXPECT_EQ(name, "E");
    params.push_back(leaf);
  }
  for (const autodiff::Variable& p : params) {
    values.insert(values.end(), p.value().data(),
                  p.value().data() + p.value().numel());
  }
  return {records, values};
}

double aux(const EpochRecord& record, const std::string& name) {
  for (const auto& [n, value] : record.aux_losses) {
    if (n == name) return value;
  }
  ADD_FAILURE() << "no aux term " << name;
  return 0.0;
}

TEST(EigenTrainer, EagerMatchesReplayBitForBitAcrossTheAnchorRelease) {
  const PrecisionGuard fp64(autodiff::Precision::kFp64);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const auto [eager_records, eager] = trajectory(GraphMode::kOff, shards);
    autodiff::plan::reset_plan_stats();
    const auto [replay_records, replay] = trajectory(GraphMode::kOn, shards);
    const autodiff::plan::PlanStats stats = autodiff::plan::plan_stats();
    // The anchor release writes a plan input in place: no re-capture.
    EXPECT_EQ(stats.plans_captured, shards);
    EXPECT_EQ(stats.replays, (kEpochs - 1) * shards);
    EXPECT_EQ(stats.fallbacks, 0u);
    for (std::int64_t e = 0; e < kEpochs; ++e) {
      const auto i = static_cast<std::size_t>(e);
      ASSERT_TRUE(std::isfinite(eager_records[i].total_loss));
      ASSERT_EQ(eager_records[i].total_loss, replay_records[i].total_loss)
          << "epoch " << e;
      // E starts at the guess, so the anchor reads 0 at epoch 0 as well.
      EXPECT_EQ(aux(replay_records[i], "anchor") == 0.0,
                e == 0 || e >= kAnchorEpochs)
          << "epoch " << e;
      EXPECT_GT(aux(replay_records[i], "overlap0"), 0.0);
    }
    ASSERT_EQ(eager.size(), replay.size());
    for (std::size_t i = 0; i < eager.size(); ++i) {
      ASSERT_EQ(eager[i], replay[i]) << "diverged at value " << i;
    }
  }
}

TEST(EigenTrainer, MixedPrecisionReplayReadsTheReleasedAnchor) {
  const PrecisionGuard mixed(autodiff::Precision::kMixed);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const auto [records, values] = trajectory(GraphMode::kOn, shards);
    for (std::int64_t e = 0; e < kEpochs; ++e) {
      const EpochRecord& record = records[static_cast<std::size_t>(e)];
      ASSERT_TRUE(std::isfinite(record.total_loss)) << "epoch " << e;
      if (e >= kAnchorEpochs) {
        EXPECT_EQ(aux(record, "anchor"), 0.0) << "epoch " << e;
      } else if (e > 0) {  // E starts at the guess
        EXPECT_GT(aux(record, "anchor"), 0.0) << "epoch " << e;
      }
    }
  }
}

}  // namespace
}  // namespace qpinn::core
