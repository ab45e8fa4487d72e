// The PINN training loop.
//
// Every step runs through one sharded executor. The interior residual MSE
// is split into N contiguous row shards: N = 1 is serial, N = threads
// runs every shard on the thread pool, and N = world gives each dist rank
// one shard. Each shard builds its own forward/backward graph against the
// shared parameter leaves — eagerly, under plan capture, or by replaying
// its captured plan — and the per-shard losses and gradients are reduced
// in shard order (deterministic), followed in dist mode by the rank-ordered
// all-reduce. This mirrors the batch-parallel GPU training of the original
// system on a shared-memory thread pool.
//
// The loop is fault-tolerant: optional crash-consistent checkpoints with
// resume (TrainConfig::checkpoint / resume_from), automatic rollback + LR
// backoff on divergence (TrainConfig::recovery), and cooperative shutdown
// (Trainer::request_stop / TrainConfig::stop_flag) that finishes the
// current epoch and writes a final checkpoint.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autodiff/plan.hpp"
#include "autodiff/precision.hpp"
#include "core/checkpoint.hpp"
#include "core/curriculum.hpp"
#include "core/metrics.hpp"
#include "core/problem.hpp"
#include "dist/communicator.hpp"
#include "optim/adam.hpp"
#include "optim/lbfgs.hpp"
#include "tensor/simd.hpp"

namespace qpinn::core {

/// Graph capture & replay policy for the training step. kEnv (default)
/// follows QPINN_GRAPH (replay is on unless QPINN_GRAPH=off); kOn/kOff
/// override the environment.
enum class GraphMode { kEnv, kOn, kOff };

/// Divergence-recovery policy. When a step's loss or gradients go
/// non-finite — or the loss exceeds `explosion_factor` times the minimum of
/// the trailing window — the trainer rolls model, optimizer, and RNG back
/// to the last good in-memory snapshot, decays the LR by `lr_backoff`, and
/// retries from there; after `max_recoveries` rollbacks it gives up
/// gracefully (TrainResult.diverged) instead of throwing.
struct RecoveryConfig {
  std::int64_t max_recoveries = 3;
  double lr_backoff = 0.5;  ///< multiplied into the LR on each recovery
  /// Diverged when loss > factor * min(trailing window); 0 disables the
  /// explosion check (non-finite values still trigger recovery).
  double explosion_factor = 0.0;
  std::int64_t explosion_window = 20;
  /// In-memory snapshot cadence in epochs (rollback granularity).
  std::int64_t snapshot_every = 25;

  void validate() const;
};

/// One rollback performed by the divergence-recovery policy.
struct RecoveryEvent {
  std::int64_t detected_epoch = 0;  ///< epoch whose step diverged
  std::int64_t rollback_epoch = 0;  ///< last good epoch restored
  double lr_scale = 1.0;            ///< LR multiplier in effect afterwards
  std::string reason;
};

/// Optional L-BFGS refinement after the Adam epochs — the classical PINN
/// two-stage recipe. The second stage runs eagerly in fp64 on the full
/// interior set (no plan capture, no mixed-precision demotion) and is
/// skipped when the Adam stage diverged or was interrupted.
struct SecondStageConfig {
  bool enabled = false;
  optim::LbfgsConfig lbfgs{};
};

struct TrainConfig {
  std::int64_t epochs = 2000;
  optim::AdamConfig adam{};       ///< adam.lr is the base learning rate
  double lr_decay = 1.0;          ///< multiplicative factor (1 = constant)
  std::int64_t lr_decay_every = 2000;
  double grad_clip = 0.0;         ///< global-norm clip; 0 disables
  double weight_pde = 1.0;        ///< weight of the interior residual MSE
  std::optional<CurriculumConfig> curriculum;
  SamplingConfig sampling{};
  /// Draw a fresh interior collocation set every `resample_every` epochs
  /// (0 = fixed set). Only meaningful for random/LHS samplers; the key
  /// defense against residual overfitting at fixed points.
  std::int64_t resample_every = 0;
  /// Evaluate relative L2 against the reference every `eval_every` epochs
  /// (0: only at the end). Evaluation uses a metric_nx x metric_nt grid.
  std::int64_t eval_every = 0;
  std::int64_t metric_nx = 64;
  std::int64_t metric_nt = 32;
  /// Emit a log line every `log_every` epochs (0: silent).
  std::int64_t log_every = 0;
  /// Interior-shard count for data-parallel training: the step executor
  /// runs min(threads, rows) contiguous shards on the thread pool and sums
  /// them in shard order (1 = serial, one shard run inline).
  std::size_t threads = 1;
  /// Throw NumericsError when the loss goes non-finite. (With `recovery`
  /// set, non-finite steps are rolled back instead of thrown regardless.)
  bool check_finite = true;
  /// Roll back + LR-backoff on divergence instead of throwing.
  std::optional<RecoveryConfig> recovery;
  /// Periodic crash-consistent checkpoints (last/best rotation).
  std::optional<CheckpointConfig> checkpoint;
  /// Path of a v2 training checkpoint to resume from (empty: fresh start).
  std::string resume_from;
  /// Optional external stop flag (e.g. set from a SIGINT handler); polled
  /// after every epoch, same semantics as Trainer::request_stop().
  const std::atomic<bool>* stop_flag = nullptr;
  /// Capture the training step into an execution plan on the first epoch
  /// and replay it afterwards (autodiff/plan.hpp). Replay is bit-identical
  /// to eager execution, so this is purely a performance choice.
  GraphMode graph = GraphMode::kEnv;
  /// Multi-process data-parallel training (dist/communicator.hpp): the
  /// step executor splits the interior into min(world, rows) shards — the
  /// same partition as `threads` sharding — and each rank runs only shard
  /// `rank` (a rank with no rows contributes zeros); gradients are then
  /// all-reduced in rank order, so an N-rank run is bit-identical to a
  /// single-process run with threads = N. A rank captures and replays its
  /// shard like a threads-mode shard; the plan is keyed on world and rank,
  /// so a degrade or rejoin that reshapes the sharding re-captures. Dist
  /// is mutually exclusive with threads > 1. Only rank 0 writes
  /// checkpoints; `resume_from` plus Communicator::rejoined() drives the
  /// elastic-rejoin path. Null: single-process training.
  std::shared_ptr<dist::Communicator> dist;
  /// L-BFGS refinement stage after the Adam epochs (see SecondStageConfig).
  SecondStageConfig second_stage{};

  void validate() const;
};

struct EpochRecord {
  std::int64_t epoch = 0;
  double total_loss = 0.0;
  double pde_loss = 0.0;
  std::vector<std::pair<std::string, double>> aux_losses;
  double l2 = std::numeric_limits<double>::quiet_NaN();  ///< NaN: not evaluated
  double lr = 0.0;
  double grad_norm = 0.0;
};

struct TrainResult {
  std::vector<EpochRecord> history;
  double final_loss = 0.0;
  double final_l2 = 0.0;
  double seconds = 0.0;
  std::int64_t epochs_run = 0;
  /// First epoch of this fit() call (nonzero when resumed).
  std::int64_t start_epoch = 0;
  /// Every rollback performed; recoveries == recovery_events.size().
  std::vector<RecoveryEvent> recovery_events;
  std::int64_t recoveries = 0;
  /// Gave up after max_recoveries (model restored to the last good state).
  bool diverged = false;
  /// Stopped cooperatively before the configured epoch count.
  bool interrupted = false;
  /// Rank losses survived via the distributed recovery state machine
  /// (checkpoint + rejoin/degrade + epoch retry).
  std::int64_t rank_failures = 0;

  /// First epoch record at-or-after `epoch` (for convergence plots).
  const EpochRecord& at_epoch(std::int64_t epoch) const;
};

class Trainer {
 public:
  Trainer(std::shared_ptr<Problem> problem, std::shared_ptr<FieldModel> model,
          TrainConfig config);

  /// Runs the configured number of epochs and returns the history.
  TrainResult fit();

  /// One optimization step on the stored collocation set; returns the
  /// epoch record (exposed for benchmarking single-step cost).
  EpochRecord step(std::int64_t epoch);

  /// Relative L2 of the current model against the problem reference (NaN
  /// when the problem has none).
  double evaluate_l2();

  /// One L-BFGS refinement pass over the current full-batch objective
  /// (the second stage of the classical Adam -> L-BFGS PINN recipe),
  /// using config.second_stage.lbfgs. Always eager fp64: no plan capture
  /// and no mixed-precision demotion, so the curvature estimates see the
  /// fp64 master weights directly. fit() invokes this automatically when
  /// second_stage.enabled; it is public so benchmarks can interleave
  /// refinement rounds with metric evaluation. `epoch` selects the
  /// curriculum weighting epoch (fit passes the last completed epoch;
  /// pass the Adam-stage epoch count when driving it manually — it is
  /// ignored without a curriculum).
  optim::LbfgsResult run_second_stage(std::int64_t epoch);

  /// Cooperative stop: the current epoch finishes, a final checkpoint is
  /// written (when checkpointing is configured), and fit() returns a
  /// partial TrainResult with interrupted = true. Async-signal-safe.
  void request_stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  bool stop_requested() const;

  const CollocationSet& collocation() const { return points_; }
  FieldModel& model() { return *model_; }

  /// True when this trainer captures/replays execution plans.
  bool graph_enabled() const { return graph_enabled_; }

  /// The captured shard plans in shard order (observability: their
  /// thunks and pass_stats(), all-zero when QPINN_PLAN_OPT is off). Empty
  /// until the first captured step; valid until the next re-capture.
  std::vector<const autodiff::plan::ExecutionPlan*> captured_plans() const;

  /// Replaces the interior collocation set (e.g. to change the batch size
  /// between fit() calls). Any captured execution plan is invalidated on
  /// the next step, exactly like a resample.
  void replace_interior(Tensor interior) {
    rebind_interior(std::move(interior));
  }

 private:
  /// Loss + parameter gradients for the current epoch.
  struct LossAndGrads {
    double total = 0.0;
    double pde = 0.0;
    double aux_weighted = 0.0;  ///< sum of weight * value over aux terms
    std::vector<std::pair<std::string, double>> aux;
    std::vector<Tensor> grads;
  };

  /// An auxiliary loss term of shard 0: its name, weight and scalar value
  /// tensor. Every step reads the aux values back from these bindings;
  /// under replay the plan recomputes `value` in place.
  struct AuxBinding {
    std::string name;
    double weight = 0.0;
    Tensor value;
  };

  /// One contiguous interior shard's step state. Eager steps build these
  /// per step and drop them when it ends; captured shards stay in plans_,
  /// where `plan` replays the step against the pinned buffers.
  struct Shard {
    autodiff::plan::ExecutionPlan plan;  ///< empty for eager shards
    Tensor loss;
    std::vector<Tensor> grads;
    Tensor points;   ///< pinned interior rows (captured shards only)
    Tensor weights;  ///< pinned curriculum weights (captured shards only)
    std::int64_t r0 = 0, r1 = 0;  ///< interior row range of this shard
    std::vector<AuxBinding> aux;  ///< shard 0 only
  };
  enum class ShardMode { kEager, kCapture, kReplay };

  /// The step executor: runs this process's shards (eager, or capture then
  /// replay) on the thread pool, reduces them in shard order, then
  /// all-reduces across ranks in dist mode. Under mixed precision a capture
  /// after epoch 0 also runs its freshly demoted plans, so every later
  /// graph-on epoch returns demoted-replay bits whether or not it captured.
  LossAndGrads compute(std::int64_t epoch);
  /// This process's shards of the threads/dist interior partition.
  std::vector<Shard> local_shards() const;
  /// One shard's step. Eager runs shard_loss and grad; capture does the
  /// same under plan::CaptureScope (compute() finalizes the plans once
  /// every shard's step is done); replay refreshes the pinned point and
  /// weight slices and replays the plan.
  void run_shard(ShardMode mode, Shard& shard,
                 const std::optional<Tensor>& weights);
  /// Shard-order sum of losses and gradients (into shard 0's gradient
  /// buffers) plus shard 0's aux readout; zeros when `shards` is empty.
  LossAndGrads reduce_shards(const std::vector<Shard>& shards) const;
  /// Per-point curriculum weights over the whole interior set.
  std::optional<Tensor> curriculum_weights(std::int64_t epoch) const;

  /// Shard-local weighted residual sum: sum(w * r^2) / (N_total * R), with
  /// N_total the full interior size.
  /// When `aux` is non-null (shard 0) the auxiliary losses are added too,
  /// and each is bound into `aux` for the readout.
  autodiff::Variable shard_loss(const Tensor& shard_points,
                                const Tensor& shard_weights,
                                std::vector<AuxBinding>* aux);

  /// Everything a captured plan depends on besides buffer contents; any
  /// change means the recorded kernel sequence (or its chunking) would
  /// diverge from eager, so the plan must be re-captured.
  struct PlanKey {
    const void* interior_data = nullptr;
    /// Monotonic count of interior-tensor *identity* changes (every
    /// rebind_interior call). The data pointer alone is unsafe: the
    /// StoragePool can hand a freed buffer back at the same address for a
    /// different point set (ABA), which would silently replay a stale plan.
    std::uint64_t interior_generation = 0;
    Shape interior_shape;
    std::size_t pool_threads = 0;
    simd::Isa isa = simd::Isa::kScalar;
    bool curriculum = false;
    /// Mixed-precision demotion changes the replayed kernel sequence, so
    /// toggling QPINN_PRECISION between steps forces a re-capture.
    autodiff::Precision precision = autodiff::Precision::kFp64;
    /// Dist membership: a rank's shard is rows shard_range(rows, world,
    /// rank). Graceful degrade compacts the survivors into a smaller world
    /// without rebinding the interior (unless the failed epoch resampled),
    /// so without these a survivor would replay its old row range.
    std::int64_t dist_world = 1;
    std::int64_t dist_rank = 0;
    bool operator==(const PlanKey&) const = default;
  };
  PlanKey current_plan_key() const;

  /// Finalizes one shard's capture through autodiff::finalize_plan with
  /// the host-read buffers (loss, grads, aux) as plan outputs, and logs
  /// what the passes did. Called once every shard's capture step is done,
  /// so its eager Variable graph is destroyed; thread-safe (per-shard
  /// state only).
  void finalize_shard_plan(Shard& sp);

  /// The only way points_.interior is rebound to a different tensor: bumps
  /// interior_generation_ so a captured plan cannot outlive the rebind.
  void rebind_interior(Tensor interior);

  /// True when training is sharded across more than one rank.
  bool dist_active() const { return config_.dist && config_.dist->world() > 1; }

  /// In-memory rollback point for divergence recovery.
  struct Snapshot {
    std::int64_t epoch = -1;  ///< last completed epoch at snapshot time
    std::vector<Tensor> params;
    optim::OptimizerState optimizer;
    RngState rng;
    Tensor interior;
  };
  Snapshot take_snapshot(std::int64_t epoch) const;
  void restore_snapshot(const Snapshot& snapshot);

  /// Checkpoint assembly / restore (epoch = last completed epoch).
  TrainingState make_state(std::int64_t epoch) const;
  void restore_state(const TrainingState& state);

  /// Opaque trainer state a rejoining rank receives over the transport
  /// (kSync): last completed epoch, LR scale, recoveries, best loss, and
  /// the resample RNG. apply returns the payload's epoch so fit() can
  /// verify it against the rejoiner's checkpoint.
  std::string make_dist_sync(std::int64_t epoch) const;
  std::int64_t apply_dist_sync(const std::string& payload);

  std::shared_ptr<Problem> problem_;
  std::shared_ptr<FieldModel> model_;
  TrainConfig config_;
  CollocationSet points_;
  Rng resample_rng_{0};
  /// The model's parameters, then the problem's leaves: what the optimizer
  /// steps, snapshots restore and the dist all-reduce sums.
  std::vector<autodiff::Variable> params_;
  /// params_ by name, the problem's under "problem.": the parameter block
  /// every checkpoint writes and resume loads.
  nn::NamedParams named_params_;
  std::unique_ptr<optim::Adam> optimizer_;
  bool graph_enabled_ = false;
  /// Bumped by rebind_interior (see PlanKey::interior_generation). The
  /// in-place resample (copy_into) deliberately does NOT bump — same
  /// buffer, plan stays hot.
  std::uint64_t interior_generation_ = 0;
  PlanKey plan_key_;
  std::vector<Shard> plans_;
  double lr_scale_ = 1.0;  ///< divergence-recovery LR backoff multiplier
  std::int64_t recoveries_ = 0;
  double best_loss_ = std::numeric_limits<double>::infinity();
  std::atomic<bool> stop_requested_{false};
  /// All-reduced sum of the ranks' stop flags from the latest dist step,
  /// so every rank stops at the same epoch (synchronized cooperative
  /// stop).
  double dist_stop_sum_ = 0.0;
  bool placed_ = false;  ///< the first dist step placed this rank's thread
};

}  // namespace qpinn::core
