#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <numbers>
#include <set>

#include "autodiff/plan.hpp"
#include "autodiff/precision.hpp"
#include "core/tdse2d.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

Tdse2dConfig base_config() {
  Tdse2dConfig config;
  config.domain = Domain2d{-3.0, 3.0, -3.0, 3.0, 0.0, 0.4};
  config.reference = free_gaussian_packet_2d(-0.5, 0.5, 0.6, 0.0, 0.0, 0.7);
  config.initial = gaussian_packet_2d_ic(-0.5, 0.5, 0.6, 0.0, 0.0, 0.7);
  config.hidden = {16, 16};
  config.fourier = nn::FourierConfig{8, 1.0};
  config.epochs = 10;
  config.n_interior = 128;
  config.seed = 3;
  return config;
}

TEST(Tdse2d, SeparableReferenceSatisfiesPde) {
  // Finite-difference residual of the product solution must vanish.
  const auto psi = free_gaussian_packet_2d(0.0, 1.0, 0.5, 0.3, -0.5, 0.6);
  const double h = 1e-4;
  const quantum::Complex i_unit(0.0, 1.0);
  for (double x : {-0.8, 0.4}) {
    for (double y : {-0.2, 0.6}) {
      for (double t : {0.1, 0.3}) {
        const quantum::Complex psi_t =
            (psi(x, y, t + h) - psi(x, y, t - h)) / (2.0 * h);
        const quantum::Complex lap =
            (psi(x + h, y, t) - 2.0 * psi(x, y, t) + psi(x - h, y, t) +
             psi(x, y + h, t) - 2.0 * psi(x, y, t) + psi(x, y - h, t)) /
            (h * h);
        EXPECT_LT(std::abs(i_unit * psi_t + 0.5 * lap), 1e-3)
            << x << " " << y << " " << t;
      }
    }
  }
}

TEST(Tdse2d, IcOpMatchesReferenceAtT0) {
  const auto reference = free_gaussian_packet_2d(0.2, 1.0, 0.5, -0.1, 0.3, 0.6);
  const auto ic = gaussian_packet_2d_ic(0.2, 1.0, 0.5, -0.1, 0.3, 0.6);
  const Tensor xs = Tensor::linspace(-1.0, 1.0, 5).reshape({5, 1});
  const Tensor ys = Tensor::linspace(-0.6, 0.8, 5).reshape({5, 1});
  auto [u0, v0] = ic(autodiff::Variable::constant(xs),
                     autodiff::Variable::constant(ys));
  for (std::int64_t i = 0; i < 5; ++i) {
    const auto exact = reference(xs[i], ys[i], 0.0);
    EXPECT_NEAR(u0.value()[i], exact.real(), 1e-12);
    EXPECT_NEAR(v0.value()[i], exact.imag(), 1e-12);
  }
}

TEST(Tdse2d, HardIcExactAtInitialTime) {
  Tdse2dSolver solver(base_config());
  const auto reference = base_config().reference;
  Tensor points(Shape{4, 3});
  for (std::int64_t r = 0; r < 4; ++r) {
    points.at(r, 0) = -1.0 + 0.7 * static_cast<double>(r);
    points.at(r, 1) = 0.3 * static_cast<double>(r) - 0.5;
    points.at(r, 2) = 0.0;
  }
  const Tensor out = solver.evaluate(points);
  for (std::int64_t r = 0; r < 4; ++r) {
    const auto exact = reference(points.at(r, 0), points.at(r, 1), 0.0);
    EXPECT_NEAR(out.at(r, 0), exact.real(), 1e-12);
    EXPECT_NEAR(out.at(r, 1), exact.imag(), 1e-12);
  }
}

TEST(Tdse2d, Sampler2dLatinProperty) {
  Rng rng(5);
  const Domain2d domain{0.0, 1.0, 2.0, 3.0, 0.0, 0.5};
  const std::int64_t n = 32;
  const Tensor points = latin_hypercube_points_2d(domain, n, rng);
  ASSERT_EQ(points.shape(), (Shape{n, 3}));
  std::set<std::int64_t> sx, sy, st;
  for (std::int64_t r = 0; r < n; ++r) {
    EXPECT_GE(points.at(r, 0), 0.0);
    EXPECT_LT(points.at(r, 0), 1.0);
    EXPECT_GE(points.at(r, 1), 2.0);
    EXPECT_LT(points.at(r, 1), 3.0);
    sx.insert(static_cast<std::int64_t>(points.at(r, 0) * n));
    sy.insert(static_cast<std::int64_t>((points.at(r, 1) - 2.0) * n));
    st.insert(static_cast<std::int64_t>(points.at(r, 2) / 0.5 * n));
  }
  EXPECT_EQ(sx.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(sy.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(st.size(), static_cast<std::size_t>(n));
}

TEST(Tdse2d, ShortTrainingReducesLossAndL2) {
  Tdse2dConfig config = base_config();
  config.epochs = 60;
  config.n_interior = 256;
  Tdse2dSolver solver(config);
  const double initial_l2 = solver.relative_l2(16, 16, 5);
  const Tdse2dResult result = solver.fit();
  EXPECT_LT(result.final_loss, result.loss_history.front());
  EXPECT_LT(result.final_l2, initial_l2);
  EXPECT_TRUE(std::isfinite(result.final_l2));
}

TEST(Tdse2d, ResidualShapeAndValidation) {
  Tdse2dSolver solver(base_config());
  Rng rng(1);
  const Domain2d domain = base_config().domain;
  const Tensor points = latin_hypercube_points_2d(domain, 16, rng);
  const Tensor res = solver.residual_at(points);
  EXPECT_EQ(res.shape(), (Shape{16, 2}));
  EXPECT_TRUE(res.all_finite());
  EXPECT_THROW(solver.residual_at(Tensor::zeros({4, 2})), ShapeError);
  EXPECT_THROW(solver.evaluate(Tensor::zeros({4, 2})), ShapeError);
}

TEST(Tdse2d, PotentialEntersResidual) {
  Tdse2dConfig with_pot = base_config();
  with_pot.potential = [](double x, double y) {
    return 0.5 * (x * x + y * y);
  };
  Tdse2dSolver a(base_config());
  Tdse2dSolver b(with_pot);
  Rng rng(2);
  const Tensor points = latin_hypercube_points_2d(base_config().domain, 8, rng);
  const Tensor ra = a.residual_at(points);
  const Tensor rb = b.residual_at(points);
  double diff = 0.0;
  for (std::int64_t i = 0; i < ra.numel(); ++i) {
    diff += std::abs(ra[i] - rb[i]);
  }
  EXPECT_GT(diff, 1e-6);  // same seed, so only the potential differs
}

TEST(Tdse2d, ConfigValidation) {
  Tdse2dConfig config = base_config();
  config.reference = nullptr;
  EXPECT_THROW(Tdse2dSolver{config}, ConfigError);
  config = base_config();
  config.initial = nullptr;
  EXPECT_THROW(Tdse2dSolver{config}, ConfigError);
  config = base_config();
  config.domain.x_hi = config.domain.x_lo;
  EXPECT_THROW(Tdse2dSolver{config}, ConfigError);
  config = base_config();
  config.n_interior = 2;
  EXPECT_THROW(Tdse2dSolver{config}, ConfigError);
}

// ---- the 2-D problem through the Trainer ---------------------------------

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

/// base_config with the harmonic trap, so every replayed epoch must
/// recompute V at the freshly resampled points.
Tdse2dConfig trap_config(std::int64_t epochs) {
  Tdse2dConfig config = base_config();
  config.potential = [](double x, double y) { return 0.5 * (x * x + y * y); };
  config.epochs = epochs;
  config.n_interior = 64;
  return config;
}

/// Per-epoch losses of `epochs` Trainer steps, then every trained value.
std::vector<double> trajectory(GraphMode graph, std::size_t shards,
                               std::int64_t epochs) {
  Tdse2dTraining setup = make_tdse2d_training(trap_config(epochs));
  setup.train.graph = graph;
  setup.train.threads = shards;
  Trainer trainer(setup.problem, setup.model, setup.train);
  std::vector<double> out;
  for (std::int64_t e = 0; e < epochs; ++e) {
    out.push_back(trainer.step(e).total_loss);
  }
  for (const autodiff::Variable& p : setup.model->parameters()) {
    const Tensor& t = p.value();
    out.insert(out.end(), t.data(), t.data() + t.numel());
  }
  return out;
}

TEST(Tdse2dTrainer, EagerMatchesReplayBitForBitAtOneAndFourShards) {
  const Fp64Guard fp64;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const std::vector<double> eager = trajectory(GraphMode::kOff, shards, 5);
    autodiff::plan::reset_plan_stats();
    const std::vector<double> replay = trajectory(GraphMode::kOn, shards, 5);
    const autodiff::plan::PlanStats stats = autodiff::plan::plan_stats();
    // Epochs 1-4 resample in place and replay the epoch-0 plans.
    EXPECT_EQ(stats.plans_captured, shards);
    EXPECT_EQ(stats.replays, 4 * shards);
    EXPECT_EQ(stats.fallbacks, 0u);
    ASSERT_EQ(eager.size(), replay.size());
    for (std::size_t i = 0; i < eager.size(); ++i) {
      ASSERT_TRUE(std::isfinite(eager[i]));
      ASSERT_EQ(eager[i], replay[i]) << "diverged at value " << i;
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Trainer::fit over make_tdse2d_training's set-up for `epochs` with
/// checkpoints in `dir`, resuming from `resume_from` when set and stopping
/// after the first epoch when `stop` is set.
TrainResult fit_checkpointed(const std::string& dir, std::int64_t epochs,
                             const std::string& resume_from, bool stop) {
  Tdse2dTraining setup = make_tdse2d_training(trap_config(epochs));
  setup.train.checkpoint = CheckpointConfig{};
  setup.train.checkpoint->dir = dir;
  setup.train.checkpoint->every = 2;
  setup.train.resume_from = resume_from;
  const std::atomic<bool> stop_flag{stop};
  setup.train.stop_flag = &stop_flag;
  return Trainer(setup.problem, setup.model, setup.train).fit();
}

TEST(Tdse2dTrainer, StoppedAndResumedFitMatchesUnbrokenRunBitForBit) {
  const std::string whole = ::testing::TempDir() + "tdse2d_whole";
  const std::string split = ::testing::TempDir() + "tdse2d_split";
  std::filesystem::remove_all(whole);
  std::filesystem::remove_all(split);

  const TrainResult unbroken = fit_checkpointed(whole, 6, "", false);
  const TrainResult stopped = fit_checkpointed(split, 6, "", true);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.epochs_run, 1);
  const TrainResult resumed =
      fit_checkpointed(split, 6, split + "/last.qckpt", false);
  EXPECT_EQ(resumed.start_epoch, 1);
  EXPECT_EQ(resumed.final_loss, unbroken.final_loss);
  // The final checkpoints hold the parameters, the Adam moments and step
  // count, the resample RNG and the (x, y, t) interior: equal bytes mean
  // the resumed run is the unbroken one.
  const std::string last = read_file(whole + "/last.qckpt");
  ASSERT_FALSE(last.empty());
  EXPECT_EQ(read_file(split + "/last.qckpt"), last);

  std::filesystem::remove_all(whole);
  std::filesystem::remove_all(split);
}

/// A y-axis domain has no grid, time-curriculum, initial or wall sets:
/// the Trainer must say so at construction, not from a shard task at the
/// first step.
void expect_trainer_rejects(const std::function<void(TrainConfig&)>& edit) {
  Tdse2dTraining setup = make_tdse2d_training(base_config());
  EXPECT_NO_THROW(Trainer(setup.problem, setup.model, setup.train));
  edit(setup.train);
  EXPECT_THROW(Trainer(setup.problem, setup.model, setup.train), ConfigError);
}

TEST(Tdse2dTrainer, GridSamplerIsAConfigError) {
  expect_trainer_rejects([](TrainConfig& train) {
    train.sampling.kind = SamplerKind::kGrid;
    train.sampling.n_interior_x = 8;
    train.sampling.n_interior_t = 8;
    train.resample_every = 0;
  });
}

TEST(Tdse2dTrainer, CurriculumIsAConfigError) {
  expect_trainer_rejects(
      [](TrainConfig& train) { train.curriculum = CurriculumConfig{}; });
}

TEST(Tdse2dTrainer, InitialPointsAreAConfigError) {
  expect_trainer_rejects(
      [](TrainConfig& train) { train.sampling.n_initial = 16; });
}

TEST(Tdse2dTrainer, BoundaryPointsAreAConfigError) {
  expect_trainer_rejects(
      [](TrainConfig& train) { train.sampling.n_boundary = 8; });
}

}  // namespace
}  // namespace qpinn::core
