// Tests for the serving layer (src/serve/): forward-only capture, batched
// replay through CompiledModel, registry hot-swap, the coalescing query
// queue, and best.qckpt promotion.
//
// The central contract: a CompiledModel replay — full batch, partial
// fringe, or chunked — is bit-identical, row for row, to an eager
// FieldModel::evaluate *at the captured batch shape* under every SIMD
// variant, costs zero storage-pool work at steady state, and never builds
// a tape. (A fringe of n live rows matches rows [0, n) of an eager forward
// over a padded full batch, not an n-row eager forward: the matmul
// row-tile fringe takes an unfused kernel path whose last ulp can differ,
// and which rows are fringe rows depends on the total row count.)
// Hot-swap must let in-flight batches finish on the model they started
// with while new queries see the promoted checkpoint.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autodiff/plan.hpp"
#include "autodiff/precision.hpp"
#include "core/checkpoint.hpp"
#include "core/field_model.hpp"
#include "serve/compiled_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/promoter.hpp"
#include "serve/query_queue.hpp"
#include "tensor/simd.hpp"
#include "tensor/storage_pool.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"

namespace qpinn::serve {
namespace {

namespace plan = qpinn::autodiff::plan;
using core::Checkpointer;
using core::FieldModel;
using core::FieldModelConfig;
using core::TrainingState;

/// Small backbone so capture and replay are fast; seeded so two models
/// with different seeds hold different weights.
std::shared_ptr<FieldModel> tiny_model(std::uint64_t seed) {
  FieldModelConfig config;
  config.hidden = {10, 10};
  config.fourier = nn::FourierConfig{5, 1.0};
  config.normalization = core::InputNormalization::for_domain(-1, 1, 0, 1);
  config.seed = seed;
  return core::make_field_model(config);
}

/// Deterministic (rows, 2) query points spread over [-1, 1] x [0, 1].
Tensor query_points(std::int64_t rows, double phase = 0.0) {
  Tensor xy = Tensor::zeros({rows, 2});
  for (std::int64_t i = 0; i < rows; ++i) {
    const double s = static_cast<double>(i) + phase;
    xy.at(i, 0) = std::sin(0.7 * s);
    xy.at(i, 1) = 0.5 + 0.5 * std::cos(1.3 * s);
  }
  return xy;
}

/// Eager reference for the CompiledModel contract: a replay always runs at
/// the captured batch shape, so each served row must be bit-identical to
/// the corresponding row of an eager forward over a zero-padded full
/// batch. (An n-row eager forward is NOT the reference — its row-tile
/// fringe takes a different kernel path than the same rows inside a full
/// batch.)
Tensor eager_at_batch_shape(FieldModel& model, const Tensor& xy,
                            std::int64_t batch_rows) {
  Tensor expected = Tensor::zeros({xy.rows(), 2});
  for (std::int64_t done = 0; done < xy.rows(); done += batch_rows) {
    const std::int64_t n = std::min(batch_rows, xy.rows() - done);
    Tensor padded = Tensor::zeros({batch_rows, 2});
    for (std::int64_t i = 0; i < n; ++i) {
      padded.at(i, 0) = xy.at(done + i, 0);
      padded.at(i, 1) = xy.at(done + i, 1);
    }
    const Tensor out = model.evaluate(padded);
    for (std::int64_t i = 0; i < n; ++i) {
      expected.at(done + i, 0) = out.at(i, 0);
      expected.at(done + i, 1) = out.at(i, 1);
    }
  }
  return expected;
}

void expect_rows_bitwise_equal(const Tensor& got, const Tensor& want,
                               std::int64_t rows) {
  for (std::int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(std::isfinite(want.at(i, 0)));
    EXPECT_EQ(got.at(i, 0), want.at(i, 0)) << "u mismatch at row " << i;
    EXPECT_EQ(got.at(i, 1), want.at(i, 1)) << "v mismatch at row " << i;
  }
}

/// Pins fp64 replay for bit-identity tests: they assert the fp64-mode
/// contract (served rows == eager rows bit-for-bit), which
/// QPINN_PRECISION=mixed intentionally trades for fp32 replay throughput.
/// Restores the previous mode so a mixed CI leg still exercises demoted
/// lanes in the tolerance-based tests.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(autodiff::Precision pin)
      : saved_(autodiff::precision_mode()) {
    autodiff::set_precision_mode(pin);
  }
  ~PrecisionGuard() { autodiff::set_precision_mode(saved_); }

 private:
  autodiff::Precision saved_;
};

/// Restores the active SIMD variant on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::force_isa(saved_); }

 private:
  simd::Isa saved_;
};

// --- forward-only capture ---------------------------------------------------

TEST(ForwardOnlyCapture, RejectsGradientAccumulationThunks) {
  plan::ExecutionPlan tape;
  plan::CaptureScope scope(tape, plan::CaptureKind::kForwardOnly);
  EXPECT_TRUE(plan::capturing());
  EXPECT_TRUE(plan::capturing_forward_only());
  const Tensor dst = Tensor::zeros(Shape{4});
  const Tensor src = Tensor::ones(Shape{4});
  EXPECT_THROW(plan::record_axpy_acc(dst, 1.0, src), ValueError);
  EXPECT_THROW(plan::record_copy_axpy(dst, src, 1.0, src), ValueError);
}

TEST(ForwardOnlyCapture, TrainingCaptureStillAcceptsThem) {
  plan::ExecutionPlan tape;
  plan::CaptureScope scope(tape);
  EXPECT_FALSE(plan::capturing_forward_only());
  const Tensor dst = Tensor::zeros(Shape{4});
  const Tensor src = Tensor::ones(Shape{4});
  plan::record_axpy_acc(dst, 1.0, src);
  EXPECT_EQ(tape.size(), 1u);
}

// --- CompiledModel ----------------------------------------------------------

TEST(CompiledModel, FullBatchBitIdenticalToEagerAcrossIsas) {
  PrecisionGuard precision_guard(autodiff::Precision::kFp64);
  IsaGuard guard;
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    auto model = tiny_model(11);
    const auto compiled = CompiledModel::compile(model, 16);
    EXPECT_GT(compiled->plan_size(), 0u);
    const Tensor xy = query_points(16);
    const Tensor eager = model->evaluate(xy);
    const Tensor served = compiled->evaluate(xy);
    SCOPED_TRACE(simd::isa_name(isa));
    expect_rows_bitwise_equal(served, eager, 16);
  }
}

TEST(CompiledModel, PartialBatchFringeBitIdenticalToEager) {
  PrecisionGuard precision_guard(autodiff::Precision::kFp64);
  auto model = tiny_model(12);
  const auto compiled = CompiledModel::compile(model, 32);
  // Dirty the pinned tail with a full batch first, so the fringe replay
  // really runs over stale rows.
  (void)compiled->evaluate(query_points(32, /*phase=*/100.0));
  for (const std::int64_t rows : {1, 5, 31}) {
    const Tensor xy = query_points(rows);
    const Tensor expected = eager_at_batch_shape(*model, xy, 32);
    const Tensor served = compiled->evaluate(xy);
    SCOPED_TRACE(rows);
    expect_rows_bitwise_equal(served, expected, rows);
    // The fringe still agrees with an n-row eager forward to rounding
    // error; only the last ulp may differ (fused full-tile vs unfused
    // fringe arithmetic in the matmul row tiling).
    const Tensor eager = model->evaluate(xy);
    for (std::int64_t i = 0; i < rows; ++i) {
      EXPECT_NEAR(served.at(i, 0), eager.at(i, 0), 1e-11) << "row " << i;
      EXPECT_NEAR(served.at(i, 1), eager.at(i, 1), 1e-11) << "row " << i;
    }
  }
}

TEST(CompiledModel, ChunksInputsLargerThanTheBatch) {
  PrecisionGuard precision_guard(autodiff::Precision::kFp64);
  auto model = tiny_model(13);
  const auto compiled = CompiledModel::compile(model, 8);
  const Tensor xy = query_points(8 * 3 + 5);
  const Tensor expected = eager_at_batch_shape(*model, xy, 8);
  const Tensor served = compiled->evaluate(xy);
  expect_rows_bitwise_equal(served, expected, xy.rows());
}

// Multiple replay lanes must be interchangeable: every lane captured the
// same forward at the same shape, so round-robin across them changes which
// mutex a caller queues on, never the answer.
TEST(CompiledModel, ReplayLanesAgreeAndCountFromArgument) {
  PrecisionGuard precision_guard(autodiff::Precision::kFp64);
  auto model = tiny_model(21);
  const auto compiled =
      CompiledModel::compile(model, 8, ModelInfo{}, /*lanes=*/3);
  EXPECT_EQ(compiled->lanes(), 3u);
  const Tensor xy = query_points(8);
  const Tensor expected = eager_at_batch_shape(*model, xy, 8);
  // Four evaluations cycle the round-robin cursor through every lane.
  for (int pass = 0; pass < 4; ++pass) {
    expect_rows_bitwise_equal(compiled->evaluate(xy), expected, xy.rows());
  }
}

// Demoted lanes (QPINN_PRECISION=mixed) trade the bitwise contract for
// fp32 replay: served rows must track the eager fp64 forward within fp32
// round-off of the network's O(1) outputs.
TEST(CompiledModel, MixedPrecisionLanesMatchEagerWithinTolerance) {
  PrecisionGuard precision_guard(autodiff::Precision::kMixed);
  auto model = tiny_model(22);
  const auto compiled =
      CompiledModel::compile(model, 8, ModelInfo{}, /*lanes=*/2);
  const Tensor xy = query_points(8 * 2 + 3);
  const Tensor expected = eager_at_batch_shape(*model, xy, 8);
  const Tensor served = compiled->evaluate(xy);
  for (std::int64_t i = 0; i < xy.rows(); ++i) {
    ASSERT_TRUE(std::isfinite(served.at(i, 0)));
    EXPECT_NEAR(served.at(i, 0), expected.at(i, 0), 1e-4);
    EXPECT_NEAR(served.at(i, 1), expected.at(i, 1), 1e-4);
  }
}

TEST(CompiledModel, SteadyStateReplayDoesZeroPoolWork) {
  auto model = tiny_model(14);
  const auto compiled = CompiledModel::compile(model, 16);
  double xy[16 * 2];
  double uv[16 * 2];
  for (std::int64_t i = 0; i < 16; ++i) {
    xy[2 * i] = std::sin(0.3 * static_cast<double>(i));
    xy[2 * i + 1] = 0.5;
  }
  compiled->evaluate_into(xy, 16, uv);  // warm-up
  auto& pool = StoragePool::instance();
  pool.reset_stats();
  const auto replays_before = plan::plan_stats().replays;
  for (int pass = 0; pass < 10; ++pass) {
    compiled->evaluate_into(xy, 16, uv);
    compiled->evaluate_into(xy, 7, uv);  // fringe path included
  }
  const StoragePoolStats stats = pool.stats();
  EXPECT_EQ(stats.heap_allocations, 0u);
  EXPECT_EQ(stats.pool_reuses, 0u);
  EXPECT_EQ(stats.adopted, 0u);
  EXPECT_EQ(plan::plan_stats().replays, replays_before + 20);
}

TEST(CompiledModel, ValidatesArguments) {
  auto model = tiny_model(15);
  EXPECT_THROW(CompiledModel::compile(model, 0), ValueError);
  EXPECT_THROW(CompiledModel::compile(nullptr, 8), ValueError);
  const auto compiled = CompiledModel::compile(model, 8);
  EXPECT_THROW(compiled->evaluate(Tensor::zeros({4, 3})), ShapeError);
}

// --- ModelRegistry ----------------------------------------------------------

TEST(ModelRegistry, PublishSwapsAndVersions) {
  ModelRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.version(), 0u);
  const auto a = CompiledModel::compile(tiny_model(1), 8);
  const auto b = CompiledModel::compile(tiny_model(2), 8);
  EXPECT_EQ(registry.publish(a), 1u);
  EXPECT_EQ(registry.current(), a);
  EXPECT_EQ(registry.publish(b), 2u);
  EXPECT_EQ(registry.current(), b);
  EXPECT_EQ(registry.version(), 2u);
  EXPECT_THROW(registry.publish(nullptr), ValueError);
}

TEST(ModelRegistry, RetiredModelSurvivesWhileHeld) {
  ModelRegistry registry;
  const auto a = CompiledModel::compile(tiny_model(3), 8);
  registry.publish(a);
  const auto held = registry.current();
  registry.publish(CompiledModel::compile(tiny_model(4), 8));
  // The snapshot still answers queries after being swapped out.
  const Tensor xy = query_points(8);
  const Tensor before = held->evaluate(xy);
  expect_rows_bitwise_equal(held->evaluate(xy), before, 8);
}

// --- QueryQueue -------------------------------------------------------------

std::shared_ptr<ModelRegistry> registry_with(std::uint64_t seed,
                                             std::int64_t batch_rows) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(CompiledModel::compile(tiny_model(seed), batch_rows));
  return registry;
}

TEST(QueryQueue, AnswersMatchEagerUnderConcurrency) {
  PrecisionGuard precision_guard(autodiff::Precision::kFp64);
  auto model = tiny_model(21);
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(CompiledModel::compile(model, 8));
  QueryQueueConfig config;
  config.workers = 2;
  config.flush_us = 100;
  QueryQueue queue(registry, config);

  constexpr std::int64_t kClients = 6;
  constexpr std::int64_t kPerClient = 40;
  const Tensor xy = query_points(kClients * kPerClient);
  const Tensor eager = model->evaluate(xy);
  std::vector<QueryResult> results(
      static_cast<std::size_t>(kClients * kPerClient));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::int64_t q = 0; q < kPerClient; ++q) {
        const std::int64_t row = c * kPerClient + q;
        results[static_cast<std::size_t>(row)] =
            queue.query(xy.at(row, 0), xy.at(row, 1));
      }
    });
  }
  for (auto& client : clients) client.join();
  queue.shutdown();

  for (std::int64_t row = 0; row < kClients * kPerClient; ++row) {
    const auto& got = results[static_cast<std::size_t>(row)];
    ASSERT_EQ(got.u, eager.at(row, 0)) << "row " << row;
    ASSERT_EQ(got.v, eager.at(row, 1)) << "row " << row;
  }
  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.queries,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batches, stats.full_batches + stats.partial_batches);
}

TEST(QueryQueue, SingleQueryFlushesOnDeadline) {
  QueryQueueConfig config;
  config.flush_us = 50;
  QueryQueue queue(registry_with(22, 64), config);
  // One lonely query can never fill a 64-row batch; the deadline must
  // flush it as a partial batch.
  (void)queue.query(0.25, 0.5);
  queue.shutdown();
  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.partial_batches, stats.batches);
}

TEST(QueryQueue, ThrowsWithoutPublishedModel) {
  QueryQueue queue(std::make_shared<ModelRegistry>(), QueryQueueConfig{});
  EXPECT_THROW(queue.query(0.0, 0.0), ValueError);
}

TEST(QueryQueue, ThrowsAfterShutdownAndShutdownIsIdempotent) {
  QueryQueue queue(registry_with(23, 8), QueryQueueConfig{});
  (void)queue.query(0.1, 0.2);
  queue.shutdown();
  queue.shutdown();
  EXPECT_THROW(queue.query(0.1, 0.2), ValueError);
}

TEST(QueryQueue, ConfigValidates) {
  QueryQueueConfig config;
  config.capacity = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = QueryQueueConfig{};
  config.workers = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = QueryQueueConfig{};
  config.flush_us = -1;
  EXPECT_THROW(config.validate(), ConfigError);
}

// A negative count must not wrap to SIZE_MAX and slip past validate(): both
// env readers reject it with a ConfigError naming the variable. No
// QueryQueue is built, so no worker thread starts.
TEST(QueryQueue, NegativeEnvCountsAreConfigErrors) {
  auto model = tiny_model(25);
  for (const char* name : {"QPINN_SERVE_WORKERS", "QPINN_SERVE_QUEUE_CAP"}) {
    SCOPED_TRACE(name);
    const char* saved = std::getenv(name);
    const std::string restore = saved != nullptr ? saved : "";
    ::setenv(name, "-1", 1);
    try {
      (void)query_queue_config_from_env();
      ADD_FAILURE() << "no ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    if (std::string(name) == "QPINN_SERVE_WORKERS") {
      EXPECT_THROW(CompiledModel::compile(model, 8), ConfigError);
    }
    if (saved != nullptr) {
      ::setenv(name, restore.c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
}

// --- hot-swap under load ----------------------------------------------------

// In-flight queries must complete on the model they were batched with and
// every query issued after the publish must see the new model; nothing may
// block, drop, or mix rows. Runs under the TSan CI leg.
TEST(QueryQueue, HotSwapUnderConcurrentQueries) {
  PrecisionGuard precision_guard(autodiff::Precision::kFp64);
  auto model_a = tiny_model(31);
  auto model_b = tiny_model(32);
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(CompiledModel::compile(model_a, 8));

  // A fixed probe point whose answer distinguishes the two models. The
  // queue batches every probe into an 8-row replay, so the references are
  // eager forwards of 8 probe copies — and since all 8 rows are full
  // row tiles (identical arithmetic per row), the answer is the same no
  // matter which batch slot a query lands in. Assert that before relying
  // on it.
  const Tensor probe = query_points(1);
  Tensor probe_batch = Tensor::zeros({8, 2});
  for (std::int64_t i = 0; i < 8; ++i) {
    probe_batch.at(i, 0) = probe.at(0, 0);
    probe_batch.at(i, 1) = probe.at(0, 1);
  }
  const Tensor eager_a = model_a->evaluate(probe_batch);
  const Tensor eager_b = model_b->evaluate(probe_batch);
  for (std::int64_t i = 1; i < 8; ++i) {
    ASSERT_EQ(eager_a.at(i, 0), eager_a.at(0, 0)) << "row " << i;
    ASSERT_EQ(eager_b.at(i, 0), eager_b.at(0, 0)) << "row " << i;
  }
  ASSERT_NE(eager_a.at(0, 0), eager_b.at(0, 0));

  QueryQueueConfig config;
  config.workers = 2;
  config.flush_us = 20;
  QueryQueue queue(registry, config);

  constexpr std::int64_t kClients = 4;
  constexpr std::int64_t kPerClient = 120;
  std::vector<std::vector<QueryResult>> answers(
      static_cast<std::size_t>(kClients));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::int64_t c = 0; c < kClients; ++c) {
    auto& mine = answers[static_cast<std::size_t>(c)];
    mine.reserve(kPerClient);
    clients.emplace_back([&queue, &mine, &probe] {
      for (std::int64_t q = 0; q < kPerClient; ++q) {
        mine.push_back(queue.query(probe.at(0, 0), probe.at(0, 1)));
      }
    });
  }
  // Swap mid-stream while clients hammer the queue.
  registry->publish(CompiledModel::compile(model_b, 8));
  for (auto& client : clients) client.join();

  // After the swap has certainly been observed, new queries see model B.
  const QueryResult after = queue.query(probe.at(0, 0), probe.at(0, 1));
  EXPECT_EQ(after.u, eager_b.at(0, 0));
  EXPECT_EQ(after.v, eager_b.at(0, 1));
  queue.shutdown();

  // Every answer came from exactly one of the two models (bitwise), and
  // per client the stream switches from A to B at most once — an
  // in-flight batch finishes on the old model, it never flips back.
  for (std::int64_t c = 0; c < kClients; ++c) {
    const auto& mine = answers[static_cast<std::size_t>(c)];
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(kPerClient));
    bool seen_b = false;
    for (std::size_t q = 0; q < mine.size(); ++q) {
      const bool is_a = mine[q].u == eager_a.at(0, 0) &&
                        mine[q].v == eager_a.at(0, 1);
      const bool is_b = mine[q].u == eager_b.at(0, 0) &&
                        mine[q].v == eager_b.at(0, 1);
      ASSERT_TRUE(is_a || is_b) << "client " << c << " query " << q
                                << " matches neither model";
      if (is_b) seen_b = true;
      if (seen_b) {
        EXPECT_TRUE(is_b) << "client " << c << " flipped back to the "
                          << "retired model at query " << q;
      }
    }
  }
}

// --- CheckpointPromoter -----------------------------------------------------

std::string temp_checkpoint(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(CheckpointPromoter, PromotesAndTracksEpochs) {
  PrecisionGuard precision_guard(autodiff::Precision::kFp64);
  const std::string path = temp_checkpoint("serve_best.qckpt");
  auto trained = tiny_model(41);
  TrainingState state;
  state.epoch = 3;
  state.best_loss = 0.25;
  Checkpointer::save_state(path, trained->named_parameters(), state);

  auto registry = std::make_shared<ModelRegistry>();
  PromoterConfig config;
  config.watch_path = path;
  config.batch_rows = 8;
  // The factory must rebuild the training-time architecture *and* seed:
  // fixed buffers (the random Fourier projection) are derived from the
  // seed and are not part of the checkpointed param block.
  CheckpointPromoter promoter(
      registry, [] { return tiny_model(/*seed=*/41); }, config);

  EXPECT_EQ(promoter.promoted_epoch(), -1);
  ASSERT_TRUE(promoter.poll_once());
  EXPECT_EQ(promoter.promoted_epoch(), 3);
  EXPECT_EQ(promoter.promotions(), 1u);
  ASSERT_NE(registry->current(), nullptr);
  EXPECT_EQ(registry->current()->info().epoch, 3);
  EXPECT_EQ(registry->current()->info().loss, 0.25);

  // The served model answers with the *checkpointed* weights, not the
  // factory's fresh ones.
  const Tensor xy = query_points(8);
  expect_rows_bitwise_equal(registry->current()->evaluate(xy),
                            trained->evaluate(xy), 8);

  // Unchanged file: no re-promotion.
  EXPECT_FALSE(promoter.poll_once());
  EXPECT_EQ(registry->version(), 1u);

  // A newer best rotates in and gets promoted. Perturb the weights in
  // place so the rotated file provably carries different parameters
  // under the same architecture and seed.
  for (auto& entry : trained->named_parameters()) {
    Tensor& value = entry.second.mutable_value();
    for (std::int64_t i = 0; i < value.numel(); ++i) {
      value.data()[i] = 1.25 * value.data()[i] + 0.01;
    }
  }
  state.epoch = 7;
  state.best_loss = 0.125;
  Checkpointer::save_state(path, trained->named_parameters(), state);
  ASSERT_TRUE(promoter.poll_once());
  EXPECT_EQ(promoter.promoted_epoch(), 7);
  EXPECT_EQ(registry->version(), 2u);
  expect_rows_bitwise_equal(registry->current()->evaluate(xy),
                            trained->evaluate(xy), 8);
}

TEST(CheckpointPromoter, MissingOrCorruptCheckpointIsNotPromoted) {
  auto registry = std::make_shared<ModelRegistry>();
  PromoterConfig config;
  config.watch_path = temp_checkpoint("serve_absent.qckpt");
  config.batch_rows = 8;
  CheckpointPromoter promoter(
      registry, [] { return tiny_model(50); }, config);
  EXPECT_FALSE(promoter.poll_once());
  EXPECT_EQ(registry->current(), nullptr);
}

TEST(CheckpointPromoter, BackgroundThreadPromotes) {
  const std::string path = temp_checkpoint("serve_bg.qckpt");
  auto trained = tiny_model(51);
  TrainingState state;
  state.epoch = 1;
  state.best_loss = 0.5;
  Checkpointer::save_state(path, trained->named_parameters(), state);

  auto registry = std::make_shared<ModelRegistry>();
  PromoterConfig config;
  config.watch_path = path;
  config.batch_rows = 8;
  config.poll_ms = 5;
  CheckpointPromoter promoter(
      registry, [] { return tiny_model(51); }, config);
  promoter.start();
  for (int spin = 0; spin < 2000 && registry->version() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  promoter.stop();
  EXPECT_GE(registry->version(), 1u);
  EXPECT_EQ(promoter.promoted_epoch(), 1);
}

}  // namespace
}  // namespace qpinn::serve
