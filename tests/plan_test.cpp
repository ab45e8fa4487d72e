// Tests for graph capture & replay (autodiff/plan.hpp).
//
// The contract under test: replay executes the identical kernels against the
// identical buffers in the identical order as the eager step it captured, so
// QPINN_GRAPH is purely a performance switch — losses, gradients, and
// checkpoints agree bit-for-bit across modes, under every SIMD variant, and
// the steady-state replay does zero storage-pool work. Anything that breaks
// the premise (batch shape, thread count) must invalidate the plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/plan_passes.hpp"
#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/trainer.hpp"
#include "optim/adam.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "tensor/storage_pool.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

namespace ad = qpinn::autodiff;
namespace plan = qpinn::autodiff::plan;

/// Small, fast configuration with a FIXED collocation set; the dedicated
/// resample test turns resampling back on (points are refreshed into the
/// pinned interior buffer in place, so the plan survives).
TrainConfig plan_config(std::int64_t epochs) {
  TrainConfig config = default_train_config(epochs, /*seed=*/7);
  config.resample_every = 0;
  config.sampling.n_interior_x = 8;
  config.sampling.n_interior_t = 8;
  config.sampling.n_initial = 16;
  config.sampling.n_boundary = 8;
  config.metric_nx = 16;
  config.metric_nt = 8;
  return config;
}

std::shared_ptr<FieldModel> tiny_model(const SchrodingerProblem& problem,
                                       std::uint64_t seed) {
  FieldModelConfig config = default_model_config(problem, seed);
  config.hidden = {12, 12};
  config.fourier = nn::FourierConfig{6, 1.0};
  config.hard_ic = HardIc{problem.config().initial, problem.domain().t_lo};
  return make_field_model(config);
}

/// Per-step total losses of `steps` optimization steps under `mode`, from a
/// freshly seeded model (identical initial weights for identical seeds).
std::vector<double> run_steps(
    const std::shared_ptr<SchrodingerProblem>& problem,
    const TrainConfig& base, GraphMode mode, std::int64_t steps,
    std::uint64_t seed) {
  TrainConfig config = base;
  config.graph = mode;
  auto model = tiny_model(*problem, seed);
  Trainer trainer(problem, model, config);
  std::vector<double> losses;
  losses.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t e = 0; e < steps; ++e) {
    losses.push_back(trainer.step(e).total_loss);
  }
  return losses;
}

void expect_bit_identical(const std::vector<double>& eager,
                          const std::vector<double>& replay) {
  ASSERT_EQ(eager.size(), replay.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    ASSERT_TRUE(std::isfinite(eager[i]));
    EXPECT_EQ(eager[i], replay[i]) << "diverged at step " << i;
  }
}

/// Pins fp64 plan replay for the duration of a bit-identity test: these
/// tests assert the fp64-mode contract (replay == eager bit-for-bit), which
/// QPINN_PRECISION=mixed intentionally trades for speed. Restores the
/// previously active mode on scope exit so a mixed CI leg still exercises
/// mixed replay in the rest of the suite.
class Fp64Guard {
 public:
  Fp64Guard() : saved_(ad::precision_mode()) {
    ad::set_precision_mode(ad::Precision::kFp64);
  }
  ~Fp64Guard() { ad::set_precision_mode(saved_); }

 private:
  ad::Precision saved_;
};

/// Restores the active SIMD variant on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::force_isa(saved_); }

 private:
  simd::Isa saved_;
};

/// Restores (or clears) QPINN_GRAPH on scope exit.
class GraphEnvGuard {
 public:
  GraphEnvGuard() {
    if (const char* value = std::getenv("QPINN_GRAPH")) {
      saved_ = value;
      had_value_ = true;
    }
  }
  ~GraphEnvGuard() {
    if (had_value_) {
      ::setenv("QPINN_GRAPH", saved_.c_str(), 1);
    } else {
      ::unsetenv("QPINN_GRAPH");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

// --- bit-identity: replay vs eager -----------------------------------------

TEST(PlanTrainer, ReplayBitIdenticalOnTdseEveryIsa) {
  Fp64Guard precision_guard;
  IsaGuard guard;
  auto problem = make_free_packet_problem();
  const TrainConfig base = plan_config(1);
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    plan::reset_plan_stats();
    const auto eager = run_steps(problem, base, GraphMode::kOff, 100, 3);
    const auto replay = run_steps(problem, base, GraphMode::kOn, 100, 3);
    expect_bit_identical(eager, replay);
    // The replay run must actually have replayed: one capture, then 99
    // steady-state replays, no fallbacks (the eager run records nothing).
    const plan::PlanStats stats = plan::plan_stats();
    EXPECT_EQ(stats.plans_captured, 1u);
    EXPECT_EQ(stats.replays, 99u);
    EXPECT_EQ(stats.fallbacks, 0u);
  }
}

TEST(PlanTrainer, ReplayBitIdenticalOnNlsEveryIsa) {
  Fp64Guard precision_guard;
  IsaGuard guard;
  auto problem = make_nls_soliton_problem();
  const TrainConfig base = plan_config(1);
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    const auto eager = run_steps(problem, base, GraphMode::kOff, 100, 11);
    const auto replay = run_steps(problem, base, GraphMode::kOn, 100, 11);
    expect_bit_identical(eager, replay);
  }
}

// A plain MLP regression loop at the autodiff layer: capture one training
// step (forward + backward), then drive Adam from the pinned gradient
// buffers for 100 replays and compare against an eagerly re-taped twin.
TEST(PlanCore, MlpTrainingLoopBitIdenticalEveryIsa) {
  IsaGuard guard;
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));

    Rng rng(17);
    const Tensor x = Tensor::randn({32, 2}, rng);
    const Tensor y = Tensor::randn({32, 1}, rng);
    const Tensor w1_init = Tensor::randn({2, 16}, rng, 0.0, 0.5);
    const Tensor b1_init = Tensor::zeros({1, 16});
    const Tensor w2_init = Tensor::randn({16, 1}, rng, 0.0, 0.5);
    const Tensor b2_init = Tensor::zeros({1, 1});

    auto make_params = [&] {
      return std::vector<ad::Variable>{
          ad::Variable::leaf(kernels::scale(w1_init, 1.0)),
          ad::Variable::leaf(kernels::scale(b1_init, 1.0)),
          ad::Variable::leaf(kernels::scale(w2_init, 1.0)),
          ad::Variable::leaf(kernels::scale(b2_init, 1.0))};
    };
    auto loss_of = [&](const std::vector<ad::Variable>& p) {
      const ad::Variable xv = ad::Variable::constant(x);
      const ad::Variable yv = ad::Variable::constant(y);
      const ad::Variable h = ad::bias_tanh(ad::matmul(xv, p[0]), p[1]);
      const ad::Variable out = ad::add(ad::matmul(h, p[2]),
                                       ad::broadcast_to(p[3], {32, 1}));
      return ad::mse(ad::sub(out, yv));
    };

    const optim::AdamConfig adam_config;

    // Eager twin: fresh tape every step.
    std::vector<ad::Variable> eager_params = make_params();
    optim::Adam eager_adam(eager_params, adam_config);
    std::vector<double> eager_losses;
    for (int s = 0; s < 100; ++s) {
      const ad::Variable loss = loss_of(eager_params);
      eager_losses.push_back(loss.value().item());
      std::vector<ad::Variable> grads = ad::grad(loss, eager_params);
      std::vector<Tensor> grad_values;
      for (const ad::Variable& g : grads) grad_values.push_back(g.value());
      eager_adam.step(grad_values);
    }

    // Replay twin: the step is taped once, then replayed from the plan.
    std::vector<ad::Variable> replay_params = make_params();
    optim::Adam replay_adam(replay_params, adam_config);
    plan::ExecutionPlan step_plan;
    Tensor loss_value;
    std::vector<Tensor> grad_values;
    {
      plan::CaptureScope scope(step_plan);
      const ad::Variable loss = loss_of(replay_params);
      loss_value = loss.value();
      for (const ad::Variable& g : ad::grad(loss, replay_params)) {
        grad_values.push_back(g.value());
      }
    }
    EXPECT_GT(step_plan.size(), 0u);
    EXPECT_GT(step_plan.arena_buffers(), 0u);
    EXPECT_GT(step_plan.arena_bytes(), 0u);
    std::vector<double> replay_losses;
    replay_losses.push_back(loss_value.item());
    replay_adam.step(grad_values);
    for (int s = 1; s < 100; ++s) {
      step_plan.replay();
      replay_losses.push_back(loss_value.item());
      replay_adam.step(grad_values);
    }

    expect_bit_identical(eager_losses, replay_losses);
    // And the final weights must match bit-for-bit, not just the losses.
    for (std::size_t p = 0; p < eager_params.size(); ++p) {
      const Tensor& a = eager_params[p].value();
      const Tensor& b = replay_params[p].value();
      ASSERT_EQ(a.numel(), b.numel());
      for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "param " << p << " element " << i;
      }
    }
  }
}

TEST(PlanTrainer, ParallelShardsWithCurriculumBitIdentical) {
  Fp64Guard precision_guard;
  set_global_threads(4);
  auto problem = make_free_packet_problem();
  TrainConfig base = plan_config(1);
  base.threads = 4;
  base.curriculum = CurriculumConfig{};
  base.curriculum->bins = 4;
  base.curriculum->warmup_epochs = 30;
  plan::reset_plan_stats();
  const auto eager = run_steps(problem, base, GraphMode::kOff, 40, 5);
  const auto replay = run_steps(problem, base, GraphMode::kOn, 40, 5);
  expect_bit_identical(eager, replay);
  // One plan per shard; every later epoch replays all four even though the
  // curriculum weights change per epoch (they are refreshed in place).
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_captured, 4u);
  EXPECT_EQ(stats.replays, 4u * 39u);
  EXPECT_EQ(stats.fallbacks, 0u);
  set_global_threads(default_num_threads());
}

// More threads than interior rows: the step runs min(threads, rows)
// one-row shards, each with its own plan, and replay still matches eager.
TEST(PlanTrainer, MoreThreadsThanRowsBitIdentical) {
  Fp64Guard precision_guard;
  set_global_threads(4);
  auto problem = make_free_packet_problem();
  const auto losses = [&](GraphMode mode) {
    TrainConfig config = plan_config(1);
    config.threads = 4;
    config.graph = mode;
    Trainer trainer(problem, tiny_model(*problem, 23), config);
    trainer.replace_interior(
        kernels::slice_rows(trainer.collocation().interior, 0, 3));
    std::vector<double> out;
    for (std::int64_t e = 0; e < 20; ++e) {
      out.push_back(trainer.step(e).total_loss);
    }
    return out;
  };
  plan::reset_plan_stats();
  const auto eager = losses(GraphMode::kOff);
  const auto replay = losses(GraphMode::kOn);
  expect_bit_identical(eager, replay);
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_captured, 3u);
  EXPECT_EQ(stats.replays, 3u * 19u);
  EXPECT_EQ(stats.fallbacks, 0u);
  set_global_threads(default_num_threads());
}

// Per-epoch resampling refreshes the pinned interior buffer in place, so a
// captured plan survives it: one capture per shard, then steady-state
// replays on fresh collocation points every epoch.
TEST(PlanTrainer, ResampleEveryEpochKeepsPlanBitIdentical) {
  Fp64Guard precision_guard;
  auto problem = make_free_packet_problem();
  TrainConfig base = plan_config(1);
  base.resample_every = 1;
  {
    SCOPED_TRACE("serial");
    plan::reset_plan_stats();
    const auto eager = run_steps(problem, base, GraphMode::kOff, 30, 13);
    const auto replay = run_steps(problem, base, GraphMode::kOn, 30, 13);
    expect_bit_identical(eager, replay);
    const plan::PlanStats stats = plan::plan_stats();
    EXPECT_EQ(stats.plans_captured, 1u);
    EXPECT_EQ(stats.replays, 29u);
    EXPECT_EQ(stats.fallbacks, 0u);
  }
  {
    SCOPED_TRACE("parallel");
    set_global_threads(4);
    TrainConfig parallel = base;
    parallel.threads = 4;
    plan::reset_plan_stats();
    const auto eager = run_steps(problem, parallel, GraphMode::kOff, 30, 13);
    const auto replay = run_steps(problem, parallel, GraphMode::kOn, 30, 13);
    expect_bit_identical(eager, replay);
    const plan::PlanStats stats = plan::plan_stats();
    EXPECT_EQ(stats.plans_captured, 4u);
    EXPECT_EQ(stats.replays, 4u * 29u);
    EXPECT_EQ(stats.fallbacks, 0u);
    set_global_threads(default_num_threads());
  }
}

// --- checkpoint interop ----------------------------------------------------

TEST(PlanTrainer, CheckpointResumeAcrossModesBitForBit) {
  Fp64Guard precision_guard;
  auto problem = make_free_packet_problem();
  for (GraphMode first : {GraphMode::kOff, GraphMode::kOn}) {
    const bool first_is_eager = first == GraphMode::kOff;
    SCOPED_TRACE(first_is_eager ? "save eager, resume replay"
                                : "save replay, resume eager");
    // Phase 1: train under `first` and write a final checkpoint.
    TrainConfig save_config = plan_config(6);
    save_config.graph = first;
    save_config.checkpoint = CheckpointConfig{};
    save_config.checkpoint->dir = ::testing::TempDir() + "qpinn_plan_ckpt_" +
                                  (first_is_eager ? "eager" : "replay");
    auto save_model = tiny_model(*problem, 5);
    Trainer save_trainer(problem, save_model, save_config);
    save_trainer.fit();
    const std::string last = Checkpointer(*save_config.checkpoint).last_path();

    // Phase 2: resume the same checkpoint under both modes; the histories
    // and final weights must agree bit-for-bit.
    auto resume = [&](GraphMode mode) {
      TrainConfig config = plan_config(12);
      config.graph = mode;
      config.resume_from = last;
      auto model = tiny_model(*problem, 5);
      Trainer trainer(problem, model, config);
      return std::make_pair(trainer.fit(), model);
    };
    auto [eager_result, eager_model] = resume(GraphMode::kOff);
    auto [replay_result, replay_model] = resume(GraphMode::kOn);

    ASSERT_EQ(eager_result.start_epoch, 6);
    ASSERT_EQ(eager_result.history.size(), replay_result.history.size());
    for (std::size_t i = 0; i < eager_result.history.size(); ++i) {
      EXPECT_EQ(eager_result.history[i].total_loss,
                replay_result.history[i].total_loss)
          << "diverged at resumed epoch " << i;
    }
    const auto eager_params = eager_model->named_parameters();
    const auto replay_params = replay_model->named_parameters();
    ASSERT_EQ(eager_params.size(), replay_params.size());
    for (std::size_t p = 0; p < eager_params.size(); ++p) {
      const Tensor& a = eager_params[p].second.value();
      const Tensor& b = replay_params[p].second.value();
      ASSERT_EQ(a.numel(), b.numel());
      for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_EQ(a[i], b[i]) << eager_params[p].first << " element " << i;
      }
    }
  }
}

// --- invalidation ----------------------------------------------------------

TEST(PlanTrainer, InvalidatesOnBatchShapeChange) {
  auto problem = make_free_packet_problem();
  TrainConfig config = plan_config(1);
  config.graph = GraphMode::kOn;
  auto model = tiny_model(*problem, 9);
  Trainer trainer(problem, model, config);
  ASSERT_TRUE(trainer.graph_enabled());

  plan::reset_plan_stats();
  trainer.step(0);
  trainer.step(1);
  plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_captured, 1u);
  EXPECT_EQ(stats.replays, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);

  // Shrink the interior batch: the plan was compiled for the old shape, so
  // the next step must fall back to a fresh capture (and still be finite).
  const Tensor& interior = trainer.collocation().interior;
  trainer.replace_interior(
      kernels::slice_rows(interior, 0, interior.shape()[0] / 2));
  const EpochRecord record = trainer.step(2);
  EXPECT_TRUE(std::isfinite(record.total_loss));
  stats = plan::plan_stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.plans_captured, 2u);

  trainer.step(3);
  EXPECT_EQ(plan::plan_stats().replays, 2u);
}

TEST(PlanTrainer, InvalidatesOnThreadCountChange) {
  set_global_threads(2);
  auto problem = make_free_packet_problem();
  TrainConfig config = plan_config(1);
  config.graph = GraphMode::kOn;
  auto model = tiny_model(*problem, 13);
  Trainer trainer(problem, model, config);

  plan::reset_plan_stats();
  trainer.step(0);
  trainer.step(1);
  ASSERT_EQ(plan::plan_stats().fallbacks, 0u);

  // Even a serial trainer keys its plan on the pool size: kernels dispatch
  // work across the global pool, so a resize changes the execution.
  set_global_threads(3);
  const EpochRecord record = trainer.step(2);
  EXPECT_TRUE(std::isfinite(record.total_loss));
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.plans_captured, 2u);
  set_global_threads(default_num_threads());
}

// The plan key must not trust the interior data pointer alone: the storage
// pool can hand a freed buffer back at the same address holding a
// *different* point set (ABA), which a (pointer, shape) key cannot tell
// apart from the captured batch. Parallel mode makes this reachable — the
// captured shard plans pin row *copies* of the interior, so rebinding the
// interior drops the last reference and parks its buffer in the pool.
TEST(PlanTrainer, RecycledInteriorBufferStillInvalidatesPlan) {
  set_global_threads(2);
  auto problem = make_free_packet_problem();
  TrainConfig config = plan_config(1);
  config.graph = GraphMode::kOn;
  config.threads = 2;
  auto model = tiny_model(*problem, 17);
  Trainer trainer(problem, model, config);
  ASSERT_TRUE(trainer.graph_enabled());

  plan::reset_plan_stats();
  trainer.step(0);
  trainer.step(1);
  ASSERT_EQ(plan::plan_stats().fallbacks, 0u);

  const Shape shape = trainer.collocation().interior.shape();
  const void* original = trainer.collocation().interior.data();
  // Rebind the interior to a throwaway tensor: the original buffer's last
  // reference dies and the pool parks it...
  trainer.replace_interior(Tensor::zeros({2, 2}));
  // ...so a same-shape allocation gets the SAME address back. This is the
  // ABA setup: identical pointer, identical shape, different points.
  Tensor recycled = Tensor::zeros(shape);
  ASSERT_EQ(recycled.data(), original)
      << "pool did not recycle the parked buffer; ABA premise not met";
  trainer.replace_interior(std::move(recycled));

  const EpochRecord record = trainer.step(2);
  EXPECT_TRUE(std::isfinite(record.total_loss));
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  set_global_threads(default_num_threads());
}

// --- steady-state cost -----------------------------------------------------

TEST(PlanTrainer, SteadyStateReplayDoesZeroPoolWork) {
  auto problem = make_free_packet_problem();
  TrainConfig config = plan_config(1);
  config.graph = GraphMode::kOn;
  auto model = tiny_model(*problem, 21);
  Trainer trainer(problem, model, config);
  trainer.step(0);  // capture
  trainer.step(1);  // first replay (Adam state is warm from construction)

  const StoragePoolStats before = StoragePool::instance().stats();
  for (std::int64_t e = 2; e < 8; ++e) trainer.step(e);
  const StoragePoolStats after = StoragePool::instance().stats();
  // Replay runs kernels into pinned buffers: no fresh heap storage and no
  // pool round-trips, i.e. zero allocations of either kind per step.
  EXPECT_EQ(after.heap_allocations, before.heap_allocations);
  EXPECT_EQ(after.pool_reuses, before.pool_reuses);
}

// One level of parallelism: the four shard tasks of a replayed step own
// the 4-thread pool, and the kernels they replay run their chunks inline
// on the shard's thread instead of dispatching nested tasks. What remains
// is top-level dispatch, and of that only the shard fan-out pays.
TEST(PlanTrainer, ShardedReplayDispatchesOnlyTopLevelTasks) {
  set_global_threads(4);
  auto problem = make_free_packet_problem();
  TrainConfig config = plan_config(1);
  config.threads = 4;
  config.graph = GraphMode::kOn;
  config.sampling.n_interior_x = 16;
  config.sampling.n_interior_t = 16;
  FieldModelConfig model_config = default_model_config(*problem, 31);
  model_config.hidden = {32, 32};
  Trainer trainer(problem, make_field_model(model_config), config);
  trainer.step(0);  // capture
  trainer.step(1);
  const std::uint64_t before = global_pool().tasks_submitted();
  trainer.step(2);
  const std::uint64_t tasks = global_pool().tasks_submitted() - before;
  // Only the shard fan-out dispatches: the gradient reduction, grad norm
  // and Adam sweeps after it are too small to pay for a dispatch. When
  // each shard's kernels re-entered the pool, the same step dispatched
  // 3990.
  EXPECT_LE(tasks, config.threads - 1u);
  set_global_threads(default_num_threads());
}

// --- plan shape --------------------------------------------------------------

/// Sets QPINN_PLAN_OPT for the scope and restores (or clears) it after.
class PlanOptOn {
 public:
  PlanOptOn() {
    if (const char* value = std::getenv("QPINN_PLAN_OPT")) saved_ = value;
    ::setenv("QPINN_PLAN_OPT", "on", 1);
  }
  ~PlanOptOn() {
    if (saved_.empty()) {
      ::unsetenv("QPINN_PLAN_OPT");
    } else {
      ::setenv("QPINN_PLAN_OPT", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

// The B1 fp64 training step (benchmark model, 900 points, one shard) takes
// its residual derivatives from one forward jet instead of six nested
// reverse sweeps. When every derivative was a `partial` sweep, its
// optimized plan held 152 matmul thunks; the jet plan holds fewer than
// half of that, and replay stays bit-identical to eager on every ISA.
TEST(PlanTrainer, JetResidualPlanHalvesMatmulsEveryIsa) {
  Fp64Guard precision_guard;
  PlanOptOn plan_opt;
  IsaGuard guard;
  auto problem = make_free_packet_problem();
  TrainConfig base = default_train_config(1, /*seed=*/7);
  base.resample_every = 0;
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    std::vector<double> losses[2];
    std::size_t matmuls = 0;
    for (const GraphMode mode : {GraphMode::kOff, GraphMode::kOn}) {
      TrainConfig config = base;
      config.graph = mode;
      Trainer trainer(problem, make_model_for(*problem, 3), config);
      for (std::int64_t e = 0; e < 3; ++e) {
        losses[mode == GraphMode::kOn].push_back(trainer.step(e).total_loss);
      }
      for (const plan::ExecutionPlan* p : trainer.captured_plans()) {
        for (const plan::Thunk& t : p->thunks()) {
          matmuls += t.k2 == &kernels::matmul_into ||
                     t.k2 == &kernels::matmul_tn_into ||
                     t.k2 == &kernels::matmul_nt_into;
        }
      }
    }
    expect_bit_identical(losses[0], losses[1]);
    EXPECT_GT(matmuls, 0u);
    EXPECT_LT(matmuls, 152u / 2);
  }
}

// Matmul backward runs matmul_nt / matmul_tn on the untransposed operands,
// so the B1 fp64 training plan copies no transpose. When the backward
// materialized them, the optimized plan held 28 transpose_into thunks
// among 471. Replay stays bit-identical to eager on every ISA, and the
// 4-shard mixed plan runs every transposed matmul in fp32.
TEST(PlanTrainer, MatmulBackwardPlanCopiesNoTransposeEveryIsa) {
  Fp64Guard precision_guard;
  PlanOptOn plan_opt;
  IsaGuard guard;
  auto problem = make_free_packet_problem();
  TrainConfig base = default_train_config(1, /*seed=*/7);
  base.resample_every = 0;
  const auto count = [](const Trainer& trainer, auto pred) {
    std::size_t n = 0;
    for (const plan::ExecutionPlan* p : trainer.captured_plans()) {
      for (const plan::Thunk& t : p->thunks()) n += pred(t) ? 1 : 0;
    }
    return n;
  };
  const auto transposes = [](const plan::Thunk& t) {
    return t.k1 == &kernels::transpose_into;
  };
  const auto transposed_matmuls = [](const plan::Thunk& t) {
    return t.k2 == &kernels::matmul_tn_into ||
           t.k2 == &kernels::matmul_nt_into;
  };
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    std::vector<double> losses[2];
    for (const GraphMode mode : {GraphMode::kOff, GraphMode::kOn}) {
      TrainConfig config = base;
      config.graph = mode;
      Trainer trainer(problem, make_model_for(*problem, 3), config);
      for (std::int64_t e = 0; e < 3; ++e) {
        losses[mode == GraphMode::kOn].push_back(trainer.step(e).total_loss);
      }
      if (mode == GraphMode::kOff) continue;
      EXPECT_EQ(count(trainer, transposes), 0u);
      EXPECT_GT(count(trainer, transposed_matmuls), 0u);
      EXPECT_LT(count(trainer, [](const plan::Thunk&) { return true; }),
                471u);
    }
    expect_bit_identical(losses[0], losses[1]);
  }

  ad::set_precision_mode(ad::Precision::kMixed);
  set_global_threads(4);
  TrainConfig config = base;
  config.graph = GraphMode::kOn;
  config.threads = 4;
  Trainer trainer(problem, make_model_for(*problem, 3), config);
  trainer.step(0);
  trainer.step(1);
  ASSERT_EQ(trainer.captured_plans().size(), 4u);
  EXPECT_EQ(count(trainer, transposes), 0u);
  EXPECT_EQ(count(trainer, transposed_matmuls), 0u)
      << "a transposed matmul stayed on its fp64 kernel";
  set_global_threads(default_num_threads());
}

// --- capture memory ---------------------------------------------------------

/// Turns the storage pool on for a test (its gauges count pooled buffers
/// only) and restores the previous setting.
class PoolOn {
 public:
  PoolOn() : saved_(StoragePool::instance().enabled()) {
    StoragePool::instance().set_enabled(true);
  }
  ~PoolOn() { StoragePool::instance().set_enabled(saved_); }

 private:
  bool saved_;
};

/// Pool gauges around the first step of a fresh B1 trainer, in bytes: the
/// high-water over the live bytes before the step, what the step leaves
/// live, and the host-built constants its captured plans keep.
struct StepMemory {
  std::int64_t high_water = 0;
  std::int64_t live_after = 0;
  std::int64_t constants = 0;
};

StepMemory first_step_memory(const std::shared_ptr<SchrodingerProblem>& problem,
                             const TrainConfig& config) {
  StoragePool& pool = StoragePool::instance();
  Trainer trainer(problem, make_model_for(*problem, 3), config);
  pool.reset_high_water();
  const auto live0 = static_cast<std::int64_t>(pool.stats().live_bytes);
  trainer.step(0);
  const StoragePoolStats s = pool.stats();
  StepMemory m;
  m.high_water = static_cast<std::int64_t>(s.live_high_water_bytes) - live0;
  m.live_after = static_cast<std::int64_t>(s.live_bytes) - live0;
  for (const plan::ExecutionPlan* p : trainer.captured_plans()) {
    m.constants += static_cast<std::int64_t>(p->constant_bytes());
  }
  return m;
}

// Two-phase capture: the capture step frees its intermediates as the eager
// step does, and storage is bound only once the step is done, from the
// buffers it returned to the pool. So the capture step's pool high-water is
// the eager step's or what the plans keep after it, whichever is higher,
// plus the host-built constants a plan must keep for replay (eager frees
// them after their last use). The gauges are exact at one pool thread.
// When recorded tensors pinned every buffer of the step, the B1 fp64
// capture step peaked at 89.1 MiB against eager's 56.0 MiB.
TEST(PlanTrainer, CaptureStepPeaksAtEagerPoolHighWater) {
  Fp64Guard precision_guard;
  PlanOptOn plan_opt;
  PoolOn pool_on;
  set_global_threads(1);
  auto problem = make_free_packet_problem();
  TrainConfig base = default_train_config(1, /*seed=*/7);
  base.resample_every = 0;
  const auto measure = [&](std::size_t shards) {
    TrainConfig config = base;
    config.threads = shards;
    config.graph = GraphMode::kOff;
    const StepMemory eager = first_step_memory(problem, config);
    config.graph = GraphMode::kOn;
    const StepMemory capture = first_step_memory(problem, config);
    EXPECT_GT(eager.high_water, 0);
    EXPECT_LE(capture.high_water,
              std::max(eager.high_water, capture.live_after) +
                  capture.constants);
    return std::pair{eager, capture};
  };

  // B1 fp64, one shard: the bound plan fits under the eager peak, so the
  // capture step peaks at eager's.
  {
    SCOPED_TRACE("fp64, one shard");
    const auto [eager, capture] = measure(1);
    EXPECT_LT(capture.live_after, eager.high_water);
    EXPECT_LE(capture.high_water, eager.high_water + capture.constants);
  }
  // Mixed, four shards one after another: each shard captures on top of
  // the others' outputs only, because the arenas and fp32 shadows are
  // bound once every shard is done; binding them is the step's peak.
  {
    SCOPED_TRACE("mixed, four shards");
    ad::set_precision_mode(ad::Precision::kMixed);
    const auto [eager, capture] = measure(4);
    EXPECT_LE(capture.high_water, capture.live_after + capture.constants);
  }
  set_global_threads(default_num_threads());
}

// Recorder ABA: the captured step drops an intermediate, the pool hands the
// same storage to a host-filled constant, and a later op reads the
// constant. The recorder must see a new external input there, not the
// dropped buffer; one keyed by data pointer alone would replay the
// intermediate's value in the constant's place.
TEST(PlanCore, RecycledStorageReadAsConstantReplaysTheConstant) {
  PoolOn pool_on;
  for (const bool optimize : {false, true}) {
    SCOPED_TRACE(optimize ? "optimized" : "verbatim");
    Rng rng(41);
    Tensor x = Tensor::randn({16, 8}, rng);
    Tensor out;
    plan::ExecutionPlan p;
    {
      plan::CaptureScope scope(p);
      ad::NoGradGuard no_grad;
      const ad::Variable xv = ad::Variable::constant(x);
      const double* dropped = nullptr;
      ad::Variable s;
      {
        const ad::Variable e = ad::exp(xv);
        dropped = e.value().data();
        s = ad::sin(e);
      }
      const Tensor c = Tensor::full({16, 8}, 0.5);
      ASSERT_EQ(c.data(), dropped) << "the pool did not recycle the storage";
      out = ad::mul(ad::Variable::constant(c), s).value();
    }
    const Tensor captured = out.clone();
    if (optimize) plan::optimize_plan(p, {out});

    for (int round = 0; round < 2; ++round) {
      p.replay();
      const Tensor want =
          kernels::mul(Tensor::full({16, 8}, 0.5),
                       kernels::sin(kernels::exp(x)));
      if (round == 0) {
        for (std::int64_t i = 0; i < want.numel(); ++i) {
          ASSERT_EQ(captured[i], want[i]) << "eager element " << i;
        }
      }
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(out[i], want[i]) << "round " << round << " element " << i;
      }
      kernels::copy_into(x, Tensor::randn({16, 8}, rng));
    }
  }
}

// --- configuration ---------------------------------------------------------

TEST(PlanEnv, GraphEnvParsing) {
  GraphEnvGuard guard;
  ::unsetenv("QPINN_GRAPH");
  EXPECT_TRUE(plan::graph_env_enabled());  // replay is the default
  ::setenv("QPINN_GRAPH", "on", 1);
  EXPECT_TRUE(plan::graph_env_enabled());
  ::setenv("QPINN_GRAPH", "1", 1);
  EXPECT_TRUE(plan::graph_env_enabled());
  ::setenv("QPINN_GRAPH", "off", 1);
  EXPECT_FALSE(plan::graph_env_enabled());
  ::setenv("QPINN_GRAPH", "0", 1);
  EXPECT_FALSE(plan::graph_env_enabled());
  ::setenv("QPINN_GRAPH", "sideways", 1);
  EXPECT_THROW(plan::graph_env_enabled(), ConfigError);
}

TEST(PlanEnv, GraphModeOverridesEnvironment) {
  GraphEnvGuard guard;
  auto problem = make_free_packet_problem();
  auto trainer_with = [&](GraphMode mode) {
    TrainConfig config = plan_config(1);
    config.graph = mode;
    auto model = tiny_model(*problem, 2);
    return std::make_unique<Trainer>(problem, model, config);
  };
  ::setenv("QPINN_GRAPH", "off", 1);
  EXPECT_FALSE(trainer_with(GraphMode::kEnv)->graph_enabled());
  EXPECT_TRUE(trainer_with(GraphMode::kOn)->graph_enabled());
  ::unsetenv("QPINN_GRAPH");
  EXPECT_TRUE(trainer_with(GraphMode::kEnv)->graph_enabled());
  EXPECT_FALSE(trainer_with(GraphMode::kOff)->graph_enabled());
}

TEST(PlanEnv, EagerModeCapturesNothing) {
  auto problem = make_free_packet_problem();
  TrainConfig config = plan_config(1);
  config.graph = GraphMode::kOff;
  auto model = tiny_model(*problem, 6);
  Trainer trainer(problem, model, config);
  plan::reset_plan_stats();
  for (std::int64_t e = 0; e < 3; ++e) trainer.step(e);
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_captured, 0u);
  EXPECT_EQ(stats.replays, 0u);
}

}  // namespace
}  // namespace qpinn::core
