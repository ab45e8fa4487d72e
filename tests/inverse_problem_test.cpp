#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "autodiff/plan.hpp"
#include "autodiff/precision.hpp"
#include "core/inverse_problem.hpp"
#include "quantum/analytic.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

InverseHarmonicConfig base_config() {
  InverseHarmonicConfig config;
  config.domain = Domain{-5.0, 5.0, 0.0, 1.0};
  const auto field = quantum::ho_coherent_state(0.8);
  auto [points, values] =
      make_observations(field, config.domain, 20, 10, 0.0, 1);
  config.data_points = points;
  config.data_values = values;
  config.omega_guess = 0.6;
  config.initial = coherent_state_ic(0.8);
  config.epochs = 50;
  config.adam.lr = 3e-3;
  config.sampling.n_interior_x = 14;
  config.sampling.n_interior_t = 14;
  return config;
}

TEST(MakeObservations, SamplesFieldExactly) {
  const auto field = quantum::ho_coherent_state(0.5);
  const Domain domain{-3.0, 3.0, 0.0, 0.5};
  auto [points, values] = make_observations(field, domain, 5, 4, 0.0, 7);
  ASSERT_EQ(points.shape(), (Shape{20, 2}));
  ASSERT_EQ(values.shape(), (Shape{20, 2}));
  for (std::int64_t r = 0; r < points.rows(); ++r) {
    const auto exact = field(points.at(r, 0), points.at(r, 1));
    EXPECT_NEAR(values.at(r, 0), exact.real(), 1e-12);
    EXPECT_NEAR(values.at(r, 1), exact.imag(), 1e-12);
  }
}

TEST(MakeObservations, NoiseHasRequestedScale) {
  const auto field = quantum::ho_coherent_state(0.5);
  const Domain domain{-3.0, 3.0, 0.0, 0.5};
  auto [points, clean] = make_observations(field, domain, 20, 20, 0.0, 7);
  auto [points2, noisy] = make_observations(field, domain, 20, 20, 0.1, 7);
  double sq = 0.0;
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    const double d = noisy[i] - clean[i];
    sq += d * d;
  }
  const double stddev = std::sqrt(sq / static_cast<double>(clean.numel()));
  EXPECT_NEAR(stddev, 0.1, 0.02);
}

TEST(InverseHarmonic, ShortRunReducesLossAndTracksOmega) {
  InverseHarmonicConfig config = base_config();
  const InverseResult result = solve_inverse_harmonic(config);
  ASSERT_EQ(result.omega_history.size(), 50u);
  EXPECT_DOUBLE_EQ(result.omega_history.front(), 0.6);  // starts at guess
  EXPECT_TRUE(std::isfinite(result.final_loss));
  EXPECT_GT(result.omega, 0.0);
  EXPECT_NE(result.model, nullptr);
}

TEST(InverseHarmonic, RecoveryTrendTowardTrueOmega) {
  // Medium-length run: omega must end closer to the true value (1.0) than
  // ~40% and the data misfit must be small. (Full convergence is shown by
  // the inverse_problem example / EXPERIMENTS.md.)
  InverseHarmonicConfig config = base_config();
  config.epochs = 1200;
  config.weight_data = 50.0;
  const InverseResult result = solve_inverse_harmonic(config);
  EXPECT_LT(result.data_loss, 5e-3);
  EXPECT_GT(result.omega, 0.45);   // moved off spurious small values
  // Omega should be rising toward 1.0 in the final quarter of training.
  const std::size_t n = result.omega_history.size();
  EXPECT_GT(result.omega_history[n - 1], result.omega_history[3 * n / 4] - 0.05);
}

TEST(InverseHarmonic, ConfigValidation) {
  InverseHarmonicConfig config = base_config();
  config.data_points = Tensor::zeros({5});
  EXPECT_THROW(solve_inverse_harmonic(config), ConfigError);
  config = base_config();
  config.data_values = Tensor::zeros({3, 2});  // row mismatch
  EXPECT_THROW(solve_inverse_harmonic(config), ConfigError);
  config = base_config();
  config.omega_guess = -1.0;
  EXPECT_THROW(solve_inverse_harmonic(config), ConfigError);
  config = base_config();
  config.initial = nullptr;
  EXPECT_THROW(solve_inverse_harmonic(config), ConfigError);
}

// ---- the inverse problem through the Trainer ----------------------------

/// Pins fp64 for a bit-identity test (mixed replay rounds differently from
/// eager by design); restores the active mode on scope exit.
class Fp64Guard {
 public:
  Fp64Guard() : saved_(autodiff::precision_mode()) {
    autodiff::set_precision_mode(autodiff::Precision::kFp64);
  }
  ~Fp64Guard() { autodiff::set_precision_mode(saved_); }

 private:
  autodiff::Precision saved_;
};

InverseHarmonicConfig tiny_config(std::int64_t epochs) {
  InverseHarmonicConfig config = base_config();
  config.epochs = epochs;
  config.sampling.n_interior_x = 8;
  config.sampling.n_interior_t = 8;
  config.sampling.n_initial = 16;
  return config;
}

/// Per-epoch loss and omega of `epochs` Trainer steps, then every trained
/// value: the model's parameters followed by omega.
std::vector<double> trajectory(GraphMode graph, std::size_t shards,
                               std::int64_t epochs) {
  InverseTraining setup = make_inverse_training(tiny_config(epochs));
  setup.train.graph = graph;
  setup.train.threads = shards;
  Trainer trainer(setup.problem, setup.model, setup.train);
  std::vector<double> out;
  for (std::int64_t e = 0; e < epochs; ++e) {
    out.push_back(trainer.step(e).total_loss);
    out.push_back(inverse_omega(*setup.problem));
  }
  for (const autodiff::Variable& p : setup.model->parameters()) {
    const Tensor& t = p.value();
    out.insert(out.end(), t.data(), t.data() + t.numel());
  }
  out.push_back(inverse_omega(*setup.problem));
  return out;
}

TEST(InverseTrainer, EagerMatchesReplayBitForBitAtOneAndFourShards) {
  const Fp64Guard fp64;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const std::vector<double> eager = trajectory(GraphMode::kOff, shards, 6);
    autodiff::plan::reset_plan_stats();
    const std::vector<double> replay = trajectory(GraphMode::kOn, shards, 6);
    const autodiff::plan::PlanStats stats = autodiff::plan::plan_stats();
    EXPECT_EQ(stats.plans_captured, shards);
    EXPECT_EQ(stats.replays, 5 * shards);
    EXPECT_EQ(stats.fallbacks, 0u);
    ASSERT_EQ(eager.size(), replay.size());
    for (std::size_t i = 0; i < eager.size(); ++i) {
      ASSERT_TRUE(std::isfinite(eager[i]));
      ASSERT_EQ(eager[i], replay[i]) << "diverged at value " << i;
    }
    // omega moved, so the leaf really trained through the plan.
    EXPECT_NE(replay.back(), 0.6);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs make_inverse_training's set-up for `epochs` with checkpoints in
/// `dir`, resuming from `resume_from` when set; returns the set-up.
InverseTraining fit_checkpointed(const std::string& dir, std::int64_t epochs,
                                 const std::string& resume_from) {
  InverseTraining setup = make_inverse_training(tiny_config(epochs));
  setup.train.checkpoint = CheckpointConfig{};
  setup.train.checkpoint->dir = dir;
  setup.train.checkpoint->every = 2;
  setup.train.resume_from = resume_from;
  Trainer(setup.problem, setup.model, setup.train).fit();
  return setup;
}

TEST(InverseTrainer, ResumedFitMatchesUnbrokenRunBitForBit) {
  const std::string whole = ::testing::TempDir() + "inverse_whole";
  const std::string split = ::testing::TempDir() + "inverse_split";
  std::filesystem::remove_all(whole);
  std::filesystem::remove_all(split);

  const InverseTraining unbroken = fit_checkpointed(whole, 8, "");
  fit_checkpointed(split, 5, "");  // stops after epoch 4
  const InverseTraining resumed =
      fit_checkpointed(split, 8, split + "/last.qckpt");

  EXPECT_EQ(inverse_omega(*resumed.problem), inverse_omega(*unbroken.problem));
  EXPECT_NE(inverse_omega(*unbroken.problem), 0.6);
  // The final checkpoints hold the parameters, omega, the Adam moments and
  // step count, the resample RNG and the interior: equal bytes mean the
  // resumed run is the unbroken one.
  const std::string last = read_file(whole + "/last.qckpt");
  ASSERT_FALSE(last.empty());
  EXPECT_EQ(read_file(split + "/last.qckpt"), last);

  // omega is checkpointed under the problem prefix: a model-only parameter
  // list cannot load the file, and the prefixed list restores w.
  InverseTraining fresh = make_inverse_training(tiny_config(8));
  EXPECT_THROW(Checkpointer::load_state(whole + "/last.qckpt",
                                        fresh.model->named_parameters()),
               ValueError);
  nn::NamedParams params = fresh.model->named_parameters();
  params.emplace_back("problem.w",
                      fresh.problem->named_parameters().at(0).second);
  Checkpointer::load_state(whole + "/last.qckpt", params);
  EXPECT_EQ(inverse_omega(*fresh.problem), inverse_omega(*unbroken.problem));

  std::filesystem::remove_all(whole);
  std::filesystem::remove_all(split);
}

TEST(InverseTrainer, HasNoReferenceSoL2IsNotEvaluated) {
  InverseTraining setup = make_inverse_training(tiny_config(1));
  Trainer trainer(setup.problem, setup.model, setup.train);
  EXPECT_TRUE(std::isnan(trainer.evaluate_l2()));
}

TEST(MakeObservations, Validation) {
  const auto field = quantum::ho_coherent_state(0.5);
  const Domain domain{-3.0, 3.0, 0.0, 0.5};
  EXPECT_THROW(make_observations(nullptr, domain, 5, 5, 0.0, 1), ValueError);
  EXPECT_THROW(make_observations(field, domain, 1, 5, 0.0, 1), ValueError);
  EXPECT_THROW(make_observations(field, domain, 5, 5, -0.1, 1), ValueError);
}

}  // namespace
}  // namespace qpinn::core
