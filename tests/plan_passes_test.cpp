// Tests for the plan-optimizer pass pipeline (autodiff/plan_passes.hpp).
//
// The contract under test: optimize_plan rewrites a captured thunk array —
// dead-thunk elimination, elementwise fusion onto the bit-identical fused
// kernels, liveness-based arena reuse — without changing ANY replayed
// value.
// Replay with the passes on stays bit-identical to eager under every SIMD
// variant (serial, parallel shards, curriculum, per-epoch resampling), the
// TDSE training plan provably shrinks in both thunk count and arena bytes,
// and QPINN_PLAN_OPT=off restores the verbatim capture.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/plan_passes.hpp"
#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/trainer.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/compiled_model.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"

namespace qpinn::core {
namespace {

namespace ad = qpinn::autodiff;
namespace plan = qpinn::autodiff::plan;

/// Small, fast configuration with a FIXED collocation set (mirrors
/// plan_test.cpp; the resample test turns resampling back on).
TrainConfig passes_config(std::int64_t epochs) {
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

/// Pins fp64 replay for the duration of a bit-identity test: under
/// QPINN_PRECISION=mixed (the CI gcc-mixed leg) trainer and serve plans
/// demote to fp32 and are tolerance-gated instead (precision_test.cpp),
/// so replay==eager only holds with the demotion pass pinned off.
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

/// Restores (or clears) QPINN_PLAN_OPT on scope exit.
class PlanOptEnvGuard {
 public:
  PlanOptEnvGuard() {
    if (const char* value = std::getenv("QPINN_PLAN_OPT")) {
      saved_ = value;
      had_value_ = true;
    }
  }
  ~PlanOptEnvGuard() {
    if (had_value_) {
      ::setenv("QPINN_PLAN_OPT", saved_.c_str(), 1);
    } else {
      ::unsetenv("QPINN_PLAN_OPT");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

// --- configuration ----------------------------------------------------------

TEST(PlanPassesEnv, PlanOptEnvParsing) {
  PlanOptEnvGuard guard;
  ::unsetenv("QPINN_PLAN_OPT");
  EXPECT_TRUE(plan::plan_opt_env_enabled());  // passes are on by default
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  EXPECT_TRUE(plan::plan_opt_env_enabled());
  ::setenv("QPINN_PLAN_OPT", "1", 1);
  EXPECT_TRUE(plan::plan_opt_env_enabled());
  ::setenv("QPINN_PLAN_OPT", "off", 1);
  EXPECT_FALSE(plan::plan_opt_env_enabled());
  ::setenv("QPINN_PLAN_OPT", "0", 1);
  EXPECT_FALSE(plan::plan_opt_env_enabled());
  ::setenv("QPINN_PLAN_OPT", "sideways", 1);
  EXPECT_THROW(plan::plan_opt_env_enabled(), ConfigError);
}

// --- unit: dead-thunk elimination -------------------------------------------

// A forward chain whose second branch is never declared an output must be
// dropped transitively (producer AND consumer of the dead intermediate), and
// the surviving chain must still replay correct values; the dead buffer goes
// stale instead of being recomputed.
TEST(PlanPassesUnit, DeadThunksEliminatedTransitively) {
  Rng rng(3);
  Tensor x = Tensor::randn({8, 8}, rng);
  Tensor live_out, dead_out;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable xv = ad::Variable::constant(x);
    live_out = ad::tanh(xv).value();
    dead_out = ad::exp(ad::square(xv)).value();  // two thunks, never read
  }
  ASSERT_EQ(p.size(), 3u);
  const plan::PassStats stats = plan::optimize_plan(p, {live_out});
  EXPECT_EQ(stats.dead_eliminated, 2u);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(stats.thunks_before, 3u);
  EXPECT_EQ(stats.thunks_after, 1u);

  // New inputs, replay: the live output matches the eager kernel bitwise;
  // the dead buffer keeps its pre-replay contents.
  const Tensor stale = dead_out.clone();
  kernels::copy_into(x, Tensor::randn({8, 8}, rng));
  p.replay();
  const Tensor want = kernels::tanh(x);
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(live_out[i], want[i]) << "element " << i;
    EXPECT_EQ(dead_out[i], stale[i]) << "dead buffer recomputed at " << i;
  }
}

// --- unit: elementwise fusion ----------------------------------------------

// The tanh-backward quad square -> neg -> add_scalar(1.0) -> mul must
// collapse onto the fused tanh_grad kernel, and the fused plan must replay
// the gradient bit-identically to the verbatim capture.
TEST(PlanPassesUnit, TanhBackwardQuadFusesOntoTanhGrad) {
  Rng rng(5);
  Tensor x = Tensor::randn({16, 4}, rng);

  auto capture = [&](plan::ExecutionPlan& p, Tensor& grad_out) {
    plan::CaptureScope scope(p);
    const ad::Variable xv = ad::Variable::leaf(x);
    const ad::Variable loss = ad::sum_all(ad::tanh(xv));
    grad_out = ad::grad(loss, {xv})[0].value();
    return loss.value();
  };

  plan::ExecutionPlan verbatim, fused;
  Tensor verbatim_grad, fused_grad;
  capture(verbatim, verbatim_grad);
  capture(fused, fused_grad);
  const plan::PassStats stats = plan::optimize_plan(fused, {fused_grad});
  EXPECT_GE(stats.fused, 3u);  // at least the quad collapsed
  EXPECT_LT(fused.size(), verbatim.size());
  bool has_tanh_grad = false;
  for (const plan::Thunk& t : fused.thunks()) {
    if (t.kind == plan::ThunkKind::kBinary &&
        t.k2 == &kernels::tanh_grad_into) {
      has_tanh_grad = true;
    }
  }
  EXPECT_TRUE(has_tanh_grad);

  kernels::copy_into(x, Tensor::randn({16, 4}, rng));
  verbatim.replay();
  fused.replay();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(fused_grad[i], verbatim_grad[i]) << "element " << i;
  }
}

// --- unit: liveness-based arena reuse ---------------------------------------

// In a chain a -> b -> c -> out of same-shape unary ops, `c`'s live interval
// starts after `a`'s ends, so `c` must be re-bound onto `a`'s storage and the
// arena must shrink by exactly one buffer — with replayed values unchanged.
TEST(PlanPassesUnit, DisjointLifetimesShareArenaStorage) {
  Rng rng(9);
  Tensor x = Tensor::randn({32, 8}, rng);
  Tensor out;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable xv = ad::Variable::constant(x);
    out = ad::sin(ad::exp(ad::tanh(ad::square(xv)))).value();
  }
  ASSERT_EQ(p.size(), 4u);
  const std::size_t buffers_before = p.arena_buffers();
  const std::size_t bytes_before = p.arena_bytes();
  const plan::PassStats stats = plan::optimize_plan(p, {out});
  EXPECT_EQ(stats.buffers_rebound, 1u);
  EXPECT_EQ(p.arena_buffers(), buffers_before - 1);
  EXPECT_LT(p.arena_bytes(), bytes_before);
  EXPECT_EQ(p.size(), 4u);  // nothing fused or dead in this chain

  kernels::copy_into(x, Tensor::randn({32, 8}, rng));
  p.replay();
  const Tensor want =
      kernels::sin(kernels::exp(kernels::tanh(kernels::square(x))));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(out[i], want[i]) << "element " << i;
  }
}

// A buffer with an owner outside the plan must NOT be re-bound, even when
// its interval is free: the host observes it between replays.
TEST(PlanPassesUnit, ExternallyObservedBufferIsNeverRebound) {
  Rng rng(11);
  Tensor x = Tensor::randn({32, 8}, rng);
  Tensor out, held;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable xv = ad::Variable::constant(x);
    const ad::Variable a = ad::square(xv);
    held = a.value();  // outside owner, NOT declared an output
    out = ad::sin(ad::exp(ad::tanh(a))).value();
  }
  const plan::PassStats stats = plan::optimize_plan(p, {out});
  // The chain would allow one rebind (see DisjointLifetimesShareArenaStorage)
  // but the only free-interval candidate pair involves `held`'s buffer as
  // the slot owner; the sin output may still land on the tanh buffer.
  kernels::copy_into(x, Tensor::randn({32, 8}, rng));
  p.replay();
  const Tensor want_held = kernels::square(x);
  for (std::int64_t i = 0; i < want_held.numel(); ++i) {
    ASSERT_EQ(held[i], want_held[i]) << "held buffer clobbered at " << i;
  }
  const Tensor want =
      kernels::sin(kernels::exp(kernels::tanh(kernels::square(x))));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(out[i], want[i]) << "element " << i;
  }
  (void)stats;
}

// --- unit: common-subexpression elimination ----------------------------------

// --- trainer: bit-identity with passes on -----------------------------------

TEST(PlanPassesTrainer, TdsePlanShrinksAndStaysBitIdenticalEveryIsa) {
  Fp64Guard precision_guard;
  PlanOptEnvGuard env;
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  IsaGuard guard;
  auto problem = make_free_packet_problem();
  const TrainConfig base = passes_config(1);
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    plan::reset_plan_stats();
    const auto eager = run_steps(problem, base, GraphMode::kOff, 60, 3);
    const auto replay = run_steps(problem, base, GraphMode::kOn, 60, 3);
    expect_bit_identical(eager, replay);
    // The optimizer must have run once (one shard) and actually shrunk the
    // TDSE training plan in both dimensions.
    const plan::PlanStats stats = plan::plan_stats();
    EXPECT_EQ(stats.plans_optimized, 1u);
    EXPECT_GT(stats.thunks_eliminated, 0u);
    EXPECT_GT(stats.arena_bytes_saved, 0u);
    EXPECT_EQ(stats.fallbacks, 0u);
  }
}

// The B1 model's 64 Fourier features: the jets' `sin_cos` evaluates one
// sin and one cos of each projection for every derivative stream, and the
// projection of detached inputs has no backward, so the training plan holds
// exactly one sin_into and one cos_into per projection buffer. Replay stays
// bit-identical to eager on every ISA.
TEST(PlanPassesTrainer, FourierSinCosComputedOncePerStepEveryIsa) {
  Fp64Guard precision_guard;
  PlanOptEnvGuard env;
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  IsaGuard guard;
  auto problem = make_free_packet_problem();
  TrainConfig base = passes_config(1);
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    std::vector<double> losses[2];
    std::map<const void*, std::size_t> sin_per_arg, cos_per_arg;
    for (const GraphMode mode : {GraphMode::kOff, GraphMode::kOn}) {
      TrainConfig config = base;
      config.graph = mode;
      Trainer trainer(problem, make_model_for(*problem, 37), config);
      for (std::int64_t e = 0; e < 4; ++e) {
        losses[mode == GraphMode::kOn].push_back(trainer.step(e).total_loss);
      }
      for (const plan::ExecutionPlan* p : trainer.captured_plans()) {
        for (const plan::Thunk& t : p->thunks()) {
          if (t.kind != plan::ThunkKind::kUnary || t.out.rank() != 2 ||
              t.out.cols() != 64) {
            continue;
          }
          if (t.k1 == &kernels::sin_into) ++sin_per_arg[t.ins[0].data()];
          if (t.k1 == &kernels::cos_into) ++cos_per_arg[t.ins[0].data()];
        }
      }
    }
    expect_bit_identical(losses[0], losses[1]);
    ASSERT_FALSE(sin_per_arg.empty());
    EXPECT_EQ(sin_per_arg.size(), cos_per_arg.size());
    for (const auto& [arg, n] : sin_per_arg) EXPECT_EQ(n, 1u);
    for (const auto& [arg, n] : cos_per_arg) EXPECT_EQ(n, 1u);
  }
}

// No pass merges repeats, so the plan must not hold any: the B1 training
// plan (soft IC, so no psi0 sweep) computes every structured batch value
// once. Value numbering over the bound thunks: every write gives its buffer
// a fresh number, and two structured thunks agreeing on kind, kernel,
// scalar bits, shapes and input numbers compute the same value. A jet rule
// that re-derived φ' or a Fourier sin/cos would repeat one. Rank-0 thunks
// are exempt: the backward of the loss sum scales one seed by the same
// weight, or the same 1/N, once per equal term (two scalar repeats).
TEST(PlanPassesTrainer, JetPlanComputesEachValueOnce) {
  Fp64Guard precision_guard;
  PlanOptEnvGuard env;
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  auto problem = make_free_packet_problem();
  TrainConfig config = passes_config(1);
  config.graph = GraphMode::kOn;
  Trainer trainer(problem, make_model_for(*problem, 37, /*hard_ic=*/false),
                  config);
  trainer.step(0);
  trainer.step(1);
  const auto plans = trainer.captured_plans();
  ASSERT_EQ(plans.size(), 1u);

  std::map<const double*, std::int64_t> number;  // buffer -> value number
  std::int64_t next = 0;
  const auto value_of = [&](const Tensor& t) {
    const auto [it, fresh] = number.try_emplace(t.data(), next);
    if (fresh) ++next;
    return it->second;
  };
  const auto append_shape = [](std::vector<std::int64_t>& key,
                               const Shape& shape) {
    key.push_back(static_cast<std::int64_t>(shape.size()));
    key.insert(key.end(), shape.begin(), shape.end());
  };
  std::map<std::vector<std::int64_t>, std::size_t> seen;  // key -> thunk
  std::size_t structured = 0;
  const std::vector<plan::Thunk>& thunks = plans[0]->thunks();
  for (std::size_t i = 0; i < thunks.size(); ++i) {
    const plan::Thunk& t = thunks[i];
    const bool unary = t.kind == plan::ThunkKind::kUnary;
    const bool scalar = t.kind == plan::ThunkKind::kUnaryScalar;
    const bool batch = t.out.rank() > 0;
    if (batch && (unary || scalar || t.kind == plan::ThunkKind::kBinary)) {
      ++structured;
      const auto kernel = unary    ? reinterpret_cast<std::intptr_t>(t.k1)
                          : scalar ? reinterpret_cast<std::intptr_t>(t.k1s)
                                   : reinterpret_cast<std::intptr_t>(t.k2);
      std::vector<std::int64_t> key{
          static_cast<std::int64_t>(t.kind), kernel,
          std::bit_cast<std::int64_t>(scalar ? t.scalar : 0.0)};
      append_shape(key, t.out.shape());
      for (const Tensor& in : t.ins) {
        key.push_back(value_of(in));
        append_shape(key, in.shape());
      }
      const auto [it, fresh] = seen.try_emplace(key, i);
      EXPECT_TRUE(fresh) << "thunk " << i << " repeats thunk " << it->second;
    }
    number[t.out.data()] = next++;
  }
  EXPECT_GT(structured, 100u);
}

TEST(PlanPassesTrainer, ParallelShardsWithCurriculumBitIdentical) {
  Fp64Guard precision_guard;
  PlanOptEnvGuard env;
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  set_global_threads(4);
  auto problem = make_free_packet_problem();
  TrainConfig base = passes_config(1);
  base.threads = 4;
  base.curriculum = CurriculumConfig{};
  base.curriculum->bins = 4;
  base.curriculum->warmup_epochs = 30;
  plan::reset_plan_stats();
  const auto eager = run_steps(problem, base, GraphMode::kOff, 40, 5);
  const auto replay = run_steps(problem, base, GraphMode::kOn, 40, 5);
  expect_bit_identical(eager, replay);
  // Every shard's plan was optimized (concurrently, inside the pool).
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_optimized, 4u);
  EXPECT_GT(stats.thunks_eliminated, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
  set_global_threads(default_num_threads());
}

TEST(PlanPassesTrainer, ResampleEveryEpochSurvivesPasses) {
  Fp64Guard precision_guard;
  PlanOptEnvGuard env;
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  auto problem = make_free_packet_problem();
  TrainConfig base = passes_config(1);
  base.resample_every = 1;
  plan::reset_plan_stats();
  const auto eager = run_steps(problem, base, GraphMode::kOff, 30, 13);
  const auto replay = run_steps(problem, base, GraphMode::kOn, 30, 13);
  expect_bit_identical(eager, replay);
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_captured, 1u);
  EXPECT_EQ(stats.plans_optimized, 1u);
  EXPECT_EQ(stats.replays, 29u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

// Invalidation (batch-shape change) discards the optimized plan and the
// re-capture is optimized again — the passes don't interfere with the
// fallback path.
TEST(PlanPassesTrainer, InvalidationRecaptureReoptimizes) {
  PlanOptEnvGuard env;
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  auto problem = make_free_packet_problem();
  TrainConfig config = passes_config(1);
  config.graph = GraphMode::kOn;
  auto model = tiny_model(*problem, 9);
  Trainer trainer(problem, model, config);

  plan::reset_plan_stats();
  trainer.step(0);
  trainer.step(1);
  EXPECT_EQ(plan::plan_stats().plans_optimized, 1u);

  const Tensor& interior = trainer.collocation().interior;
  trainer.replace_interior(
      kernels::slice_rows(interior, 0, interior.shape()[0] / 2));
  const EpochRecord record = trainer.step(2);
  EXPECT_TRUE(std::isfinite(record.total_loss));
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.plans_captured, 2u);
  EXPECT_EQ(stats.plans_optimized, 2u);
}

// A malformed QPINN_PLAN_OPT fails at Trainer construction rather than at
// the first capture, which in threads mode runs inside pool shard tasks.
TEST(PlanPassesTrainer, MalformedPlanOptEnvThrowsAtConstruction) {
  PlanOptEnvGuard env;
  ::setenv("QPINN_PLAN_OPT", "sideways", 1);
  auto problem = make_free_packet_problem();
  TrainConfig config = passes_config(1);
  config.graph = GraphMode::kOn;
  auto model = tiny_model(*problem, 9);
  EXPECT_THROW(Trainer(problem, model, config), ConfigError);
}

// --- escape hatch -----------------------------------------------------------

// QPINN_PLAN_OPT=off must replay the verbatim capture (no optimizer run at
// all) and still agree bit-for-bit with the optimized mode — the passes are
// purely a performance knob, exactly like QPINN_GRAPH.
TEST(PlanPassesTrainer, OffRestoresVerbatimPlanBitIdentical) {
  Fp64Guard precision_guard;
  PlanOptEnvGuard env;
  auto problem = make_free_packet_problem();
  const TrainConfig base = passes_config(1);

  ::setenv("QPINN_PLAN_OPT", "off", 1);
  plan::reset_plan_stats();
  const auto verbatim = run_steps(problem, base, GraphMode::kOn, 40, 23);
  const plan::PlanStats off_stats = plan::plan_stats();
  EXPECT_EQ(off_stats.plans_optimized, 0u);
  EXPECT_EQ(off_stats.thunks_eliminated, 0u);
  EXPECT_EQ(off_stats.arena_bytes_saved, 0u);

  ::setenv("QPINN_PLAN_OPT", "on", 1);
  plan::reset_plan_stats();
  const auto optimized = run_steps(problem, base, GraphMode::kOn, 40, 23);
  EXPECT_EQ(plan::plan_stats().plans_optimized, 1u);

  expect_bit_identical(verbatim, optimized);
}

// --- serving plans ----------------------------------------------------------

// Forward-only plans go through the same pipeline: the optimized
// CompiledModel must evaluate bit-identically to the verbatim one, and its
// arena must be no larger.
TEST(PlanPassesServe, CompiledModelOptimizedBitIdenticalToVerbatim) {
  Fp64Guard precision_guard;
  PlanOptEnvGuard env;
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 31);
  constexpr std::int64_t kRows = 16;

  ::setenv("QPINN_PLAN_OPT", "off", 1);
  const auto verbatim = serve::CompiledModel::compile(model, kRows);
  ::setenv("QPINN_PLAN_OPT", "on", 1);
  const auto optimized = serve::CompiledModel::compile(model, kRows);

  EXPECT_LE(optimized->plan_size(), verbatim->plan_size());
  EXPECT_LE(optimized->arena_bytes(), verbatim->arena_bytes());
  EXPECT_EQ(verbatim->pass_stats().thunks_before, 0u);  // passes never ran
  EXPECT_EQ(optimized->pass_stats().thunks_before, verbatim->plan_size());

  Rng rng(7);
  const Tensor xy = Tensor::rand({kRows, 2}, rng, -1.0, 1.0);
  const Tensor a = verbatim->evaluate(xy);
  const Tensor b = optimized->evaluate(xy);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace qpinn::core
