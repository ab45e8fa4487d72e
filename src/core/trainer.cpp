#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "autodiff/grad.hpp"
#include "autodiff/plan_passes.hpp"
#include "optim/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "util/binary_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/invariant.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace qpinn::core {

using autodiff::Variable;
using namespace autodiff;

void RecoveryConfig::validate() const {
  if (max_recoveries < 0) {
    throw ConfigError("RecoveryConfig: max_recoveries must be >= 0");
  }
  if (lr_backoff <= 0.0 || lr_backoff > 1.0) {
    throw ConfigError("RecoveryConfig: lr_backoff must be in (0, 1]");
  }
  if (explosion_factor != 0.0 && explosion_factor <= 1.0) {
    throw ConfigError(
        "RecoveryConfig: explosion_factor must be > 1 (or 0 to disable)");
  }
  if (explosion_window < 1) {
    throw ConfigError("RecoveryConfig: explosion_window must be >= 1");
  }
  if (snapshot_every < 1) {
    throw ConfigError("RecoveryConfig: snapshot_every must be >= 1");
  }
}

void TrainConfig::validate() const {
  if (epochs < 1) throw ConfigError("TrainConfig: epochs must be >= 1");
  if (adam.lr <= 0.0) throw ConfigError("TrainConfig: lr must be positive");
  if (lr_decay <= 0.0 || lr_decay > 1.0) {
    throw ConfigError("TrainConfig: lr_decay must be in (0, 1]");
  }
  if (lr_decay_every < 1) {
    throw ConfigError("TrainConfig: lr_decay_every must be >= 1");
  }
  if (grad_clip < 0.0) throw ConfigError("TrainConfig: grad_clip must be >= 0");
  if (weight_pde < 0.0) {
    throw ConfigError("TrainConfig: weight_pde must be >= 0");
  }
  if (threads < 1) throw ConfigError("TrainConfig: threads must be >= 1");
  if (metric_nx < 2 || metric_nt < 2) {
    throw ConfigError("TrainConfig: metric grid must be at least 2x2");
  }
  if (second_stage.enabled &&
      (second_stage.lbfgs.max_iterations < 1 || second_stage.lbfgs.history < 1)) {
    throw ConfigError(
        "TrainConfig: second_stage needs max_iterations >= 1 and "
        "history >= 1");
  }
  if (curriculum) curriculum->validate();
  if (recovery) recovery->validate();
  if (checkpoint) checkpoint->validate();
  if (dist && dist->world() > 1 && threads > 1) {
    throw ConfigError(
        "TrainConfig: dist training shards the interior across ranks; "
        "combine it with threads = 1 (per-rank thread sharding would "
        "change the reduction partition)");
  }
}

const EpochRecord& TrainResult::at_epoch(std::int64_t epoch) const {
  QPINN_CHECK(!history.empty(), "empty training history");
  for (const auto& record : history) {
    if (record.epoch >= epoch) return record;
  }
  return history.back();
}

Trainer::Trainer(std::shared_ptr<Problem> problem,
                 std::shared_ptr<FieldModel> model, TrainConfig config)
    : problem_(std::move(problem)),
      model_(std::move(model)),
      config_(std::move(config)) {
  QPINN_CHECK(problem_ != nullptr, "Trainer needs a problem");
  QPINN_CHECK(model_ != nullptr, "Trainer needs a model");
  config_.validate();

  points_ = make_collocation(problem_->domain(), config_.sampling);
  // per_point_weights would throw this only at the first step.
  if (config_.curriculum) problem_->domain().require_xt("curriculum");
  resample_rng_ = Rng(config_.sampling.seed ^ 0xA5A5A5A5ULL);
  if (config_.resample_every > 0 &&
      config_.sampling.kind == SamplerKind::kGrid) {
    throw ConfigError(
        "TrainConfig: resampling requires a random or LHS sampler");
  }
  params_ = model_->parameters();
  named_params_ = model_->named_parameters();
  for (auto& [name, leaf] : problem_->named_parameters()) {
    params_.push_back(leaf);
    named_params_.emplace_back("problem." + name, std::move(leaf));
  }
  optimizer_ = std::make_unique<optim::Adam>(params_, config_.adam);
  QPINN_INVARIANT(
      optimizer_->params().size() == named_params_.size(),
      "core.trainer", "param-agreement",
      "optimizer parameter count " +
          std::to_string(optimizer_->params().size()) +
          " disagrees with the checkpointed (model + problem) parameter "
          "count " +
          std::to_string(named_params_.size()));
  graph_enabled_ =
      config_.graph == GraphMode::kOn ||
      (config_.graph == GraphMode::kEnv && plan::graph_env_enabled());
  // Validate QPINN_PLAN_OPT here so a malformed value fails at
  // construction, not at the first capture inside a pool shard task;
  // finalize_plan re-reads it on every capture.
  plan::plan_opt_env_enabled();
}

namespace {

/// Row range [r0, r1) of shard `s` when `rows` interior rows are split into
/// `shards` contiguous shards, the first rows % shards of them one row
/// longer. Threads and dist mode share this partition, which is what makes
/// an N-rank step bit-identical to a single-process step with threads = N.
std::pair<std::int64_t, std::int64_t> shard_range(std::int64_t rows,
                                                  std::int64_t shards,
                                                  std::int64_t s) {
  const std::int64_t base = rows / shards;
  const std::int64_t extra = rows % shards;
  const std::int64_t r0 = s * base + std::min(s, extra);
  return {r0, r0 + base + (s < extra ? 1 : 0)};
}

/// Rows [r0, r1) of `t`. The full range is `t` itself rather than a copy,
/// so a single shard computes on (and its plan pins) the interior buffer.
Tensor shard_rows(const Tensor& t, std::int64_t r0, std::int64_t r1) {
  return (r0 == 0 && r1 == t.rows()) ? t : kernels::slice_rows(t, r0, r1);
}

}  // namespace

Variable Trainer::shard_loss(const Tensor& shard_points,
                             const Tensor& shard_weights,
                             std::vector<AuxBinding>* aux) {
  const Variable X = Variable::leaf(shard_points, /*requires_grad=*/true);
  const Variable residual = problem_->residual(*model_, X);
  QPINN_CHECK_SHAPE(residual.value().rows() == shard_points.rows(),
                    "problem residual row count mismatch");

  // sum(w * r^2) normalized by the FULL interior size so shard losses add
  // up to the serial mean. The square/multiply/reduce composition is fused
  // into one kernel sweep (and one tape node).
  Variable reduced =
      (shard_weights.rank() == 2)
          ? weighted_square_sum(Variable::constant(shard_weights), residual)
          : square_sum(residual);
  const double denom = static_cast<double>(points_.interior.rows()) *
                       static_cast<double>(problem_->residual_dim());
  Variable loss = scale(reduced, config_.weight_pde / denom);

  if (aux != nullptr) {
    for (LossTerm& term : problem_->auxiliary_losses(*model_, points_)) {
      if (term.weight == 0.0) continue;
      aux->push_back({term.name, term.weight, term.value.value()});
      loss = add(loss, scale(term.value, term.weight));
    }
  }
  return loss;
}

std::optional<Tensor> Trainer::curriculum_weights(std::int64_t epoch) const {
  if (!config_.curriculum) return std::nullopt;
  return per_point_weights(*config_.curriculum, problem_->domain(),
                           points_.interior, epoch);
}

std::vector<Trainer::Shard> Trainer::local_shards() const {
  const bool dist = dist_active();
  const std::int64_t rows = points_.interior.rows();
  const std::int64_t ways =
      dist ? config_.dist->world() : static_cast<std::int64_t>(config_.threads);
  const std::int64_t count = std::min(ways, rows);
  // Threads mode runs every shard in this process; a dist rank owns only
  // shard `rank`, and none when there are more ranks than rows.
  const std::int64_t first = dist ? std::min(config_.dist->rank(), count) : 0;
  const std::int64_t last = dist ? std::min(first + 1, count) : count;
  std::vector<Shard> shards;
  for (std::int64_t s = first; s < last; ++s) {
    Shard& shard = shards.emplace_back();
    std::tie(shard.r0, shard.r1) = shard_range(rows, count, s);
  }
  return shards;
}

void Trainer::run_shard(ShardMode mode, Shard& shard,
                        const std::optional<Tensor>& weights) {
  if (mode == ShardMode::kReplay) {
    // Refresh the pinned inputs first, so an in-place resample (which keeps
    // the interior's identity, and therefore the plan) and this epoch's
    // curriculum weights are seen by the thunks.
    if (shard.r1 - shard.r0 < points_.interior.rows()) {
      kernels::slice_rows_into(shard.points, points_.interior, shard.r0,
                               shard.r1);
    }
    if (weights) {
      kernels::slice_rows_into(shard.weights, *weights, shard.r0, shard.r1);
    }
    shard.plan.replay();
    return;
  }
  const Tensor points = shard_rows(points_.interior, shard.r0, shard.r1);
  // An undefined (scalar) tensor is shard_loss's no-weights sentinel.
  const Tensor shard_weights =
      weights ? shard_rows(*weights, shard.r0, shard.r1) : Tensor();
  {
    // Capture is the eager step with the recorder armed, so the captured
    // epoch IS an eager epoch.
    std::optional<plan::CaptureScope> scope;
    if (mode == ShardMode::kCapture) scope.emplace(shard.plan);
    std::vector<AuxBinding>* aux = shard.r0 == 0 ? &shard.aux : nullptr;
    const Variable loss = shard_loss(points, shard_weights, aux);
    const std::vector<Variable> grads = grad(loss, params_);
    shard.loss = loss.value();
    for (const Variable& g : grads) shard.grads.push_back(g.value());
  }
  if (mode == ShardMode::kCapture) {
    shard.points = points;
    shard.weights = shard_weights;
  }
}

Trainer::LossAndGrads Trainer::reduce_shards(
    const std::vector<Shard>& shards) const {
  LossAndGrads result;
  if (shards.empty()) {
    // A dist rank past the last shard contributes exact zeros.
    for (const Variable& p : params_) {
      result.grads.push_back(Tensor::zeros(p.value().shape()));
    }
    return result;
  }
  // Deterministic shard-order reduction into shard 0's gradient buffers.
  // Eager, capture and replay all read their results here, in this order,
  // which is what keeps every replayed epoch bit-identical to eager.
  result.total = shards[0].loss.item();
  result.grads = shards[0].grads;
  for (std::size_t s = 1; s < shards.size(); ++s) {
    result.total += shards[s].loss.item();
    for (std::size_t p = 0; p < result.grads.size(); ++p) {
      kernels::axpy_inplace(result.grads[p], 1.0, shards[s].grads[p]);
    }
  }
  for (const AuxBinding& b : shards[0].aux) {
    const double value = b.value.item();
    result.aux.emplace_back(b.name, value);
    result.aux_weighted += b.weight * value;
  }
  return result;
}

Trainer::PlanKey Trainer::current_plan_key() const {
  PlanKey key;
  key.interior_data = points_.interior.data();
  key.interior_generation = interior_generation_;
  key.interior_shape = points_.interior.shape();
  key.pool_threads = global_pool().size();
  key.isa = simd::active_isa();
  key.curriculum = config_.curriculum.has_value();
  key.precision = precision_mode();
  if (config_.dist) {
    key.dist_world = config_.dist->world();
    key.dist_rank = config_.dist->rank();
  }
  return key;
}

void Trainer::finalize_shard_plan(Shard& sp) {
  std::vector<Tensor> outputs;
  outputs.reserve(sp.grads.size() + sp.aux.size() + 1);
  outputs.push_back(sp.loss);
  for (const Tensor& g : sp.grads) outputs.push_back(g);
  for (const AuxBinding& b : sp.aux) outputs.push_back(b.value);
  const FinalizeStats stats = finalize_plan(sp.plan, outputs);
  if (const auto& p = stats.passes) {
    log::debug() << problem_->name() << " plan optimized: "
                 << p->thunks_before << " -> " << p->thunks_after
                 << " thunks (" << p->dead_eliminated << " dead, "
                 << p->fused << " fused), arena " << p->arena_bytes_before
                 << " -> " << p->arena_bytes_after << " bytes ("
                 << p->buffers_rebound << " buffers re-bound)";
  }
  if (const auto& d = stats.demotion) {
    log::debug() << problem_->name() << " plan demoted to mixed precision: "
                 << d->demoted << "/" << d->thunks_before
                 << " thunks fp32 (" << d->kept_fp64 << " kept fp64, "
                 << d->downcasts << " downcasts, " << d->upcasts
                 << " upcasts, " << d->shadow_bytes << " shadow bytes)";
  }
}

std::vector<const plan::ExecutionPlan*> Trainer::captured_plans() const {
  std::vector<const plan::ExecutionPlan*> plans;
  plans.reserve(plans_.size());
  for (const Shard& shard : plans_) plans.push_back(&shard.plan);
  return plans;
}

Trainer::LossAndGrads Trainer::compute(std::int64_t epoch) {
  const std::optional<Tensor> weights = curriculum_weights(epoch);
  ShardMode mode = ShardMode::kEager;
  PlanKey key;
  if (graph_enabled_) {
    key = current_plan_key();
    if (!plans_.empty() && !(key == plan_key_)) {
      plans_.clear();
      plan::count_fallback();
      log::info() << problem_->name()
                  << " execution plan invalidated (batch-shape/thread/ISA/"
                     "dist-membership change); re-capturing";
    }
    mode = plans_.empty() ? ShardMode::kCapture : ShardMode::kReplay;
    // Under mixed precision epoch 0 is the fp64 capture step of every run
    // and later epochs are demoted (see below). An epoch 0 retried after a
    // rank was lost in its all-reduce runs eager, keeping the plan.
    if (mode == ShardMode::kReplay && epoch == 0 &&
        key.precision == autodiff::Precision::kMixed) {
      mode = ShardMode::kEager;
    }
  }
  // Eager shards die with this step; captured ones stay pinned in plans_.
  std::vector<Shard> eager_shards;
  std::vector<Shard>& shards =
      mode == ShardMode::kEager ? eager_shards : plans_;
  if (mode != ShardMode::kReplay) shards = local_shards();

  LossAndGrads result;
  try {
    global_pool().for_each_index(shards.size(), [&](std::size_t s) {
      run_shard(mode, shards[s], weights);
    });
    if (mode == ShardMode::kCapture) {
      // Binding waits for every shard's step, so no shard's arena is
      // allocated while another shard's capture is at its peak.
      global_pool().for_each_index(shards.size(), [&](std::size_t s) {
        finalize_shard_plan(shards[s]);
      });
      // A demoted plan rounds differently from the fp64 step it was
      // captured from. Every run captures at epoch 0, and a run that keeps
      // its plans replays them at every later epoch; so a capture at a
      // later epoch (a rejoined rank, a degraded survivor, a resumed run)
      // runs its freshly demoted plan once, its pinned inputs still holding
      // this epoch's values, and returns the bits that run returns.
      if (key.precision == autodiff::Precision::kMixed && epoch > 0) {
        global_pool().for_each_index(shards.size(), [&](std::size_t s) {
          shards[s].plan.run();
        });
      }
    }
    result = reduce_shards(shards);
  } catch (...) {
    // A failed capture (e.g. non-finite loss mid-step) leaves a partial
    // plan behind; discard it so the next step re-captures cleanly.
    if (mode == ShardMode::kCapture) plans_.clear();
    throw;
  }
  if (mode == ShardMode::kCapture) plan_key_ = key;

  if (dist_active()) {
    // Reduction buffer: [loss, weighted aux sum, stop flag, grads...]. The
    // stop flag rides the same all-reduce so every rank observes the same
    // sum and stops at the same epoch. Named aux values stay on rank 0.
    std::size_t numel = 0;
    for (const Tensor& g : result.grads) {
      numel += static_cast<std::size_t>(g.numel());
    }
    std::vector<double> buffer;
    buffer.reserve(3 + numel);
    buffer.push_back(result.total);
    buffer.push_back(result.aux_weighted);
    buffer.push_back(stop_requested() ? 1.0 : 0.0);
    for (const Tensor& g : result.grads) {
      buffer.insert(buffer.end(), g.data(), g.data() + g.numel());
    }

    config_.dist->allreduce(buffer, epoch);

    result.total = buffer[0];
    result.aux_weighted = buffer[1];
    dist_stop_sum_ = buffer[2];
    const double* reduced = buffer.data() + 3;
    for (Tensor& g : result.grads) {
      std::copy(reduced, reduced + g.numel(), g.data());
      reduced += g.numel();
    }
  }
  result.pde = result.total - result.aux_weighted;
  return result;
}

EpochRecord Trainer::step(std::int64_t epoch) {
  if (config_.dist) {
    // A rank's first step moves its thread once to allowed CPU `rank`, so
    // in-process ranks do not start on one CPU. The yield lets a rank
    // thread just started on this CPU run now and place itself, instead of
    // waiting out this thread's time slice.
    if (!std::exchange(placed_, true)) {
      place_thread_once(static_cast<std::size_t>(config_.dist->rank()));
      std::this_thread::yield();
    }
    dist::maybe_fault_kill(config_.dist->rank(), epoch);
  }
  const double lr =
      lr_scale_ * optim::decayed_lr(config_.adam.lr, config_.lr_decay,
                                    config_.lr_decay_every, epoch);
  optimizer_->set_lr(lr);

  if (config_.resample_every > 0 && epoch > 0 &&
      epoch % config_.resample_every == 0) {
    const std::int64_t n =
        config_.sampling.n_interior_x * config_.sampling.n_interior_t;
    Tensor fresh =
        (config_.sampling.kind == SamplerKind::kLatinHypercube)
            ? latin_hypercube_points(problem_->domain(), n, resample_rng_)
            : uniform_points(problem_->domain(), n, resample_rng_);
    // Refreshing the interior in place keeps the tensor's identity, so a
    // captured plan survives per-epoch resampling (replay re-reads the
    // storage). A shape change rebinds the tensor and invalidates the plan.
    if (points_.interior.shape() == fresh.shape()) {
      kernels::copy_into(points_.interior, fresh);
    } else {
      rebind_interior(std::move(fresh));
    }
  }

  LossAndGrads lg = compute(epoch);
  if (fault_fires(kFaultTrainerNanLoss)) {
    lg.total = std::numeric_limits<double>::quiet_NaN();
  }
  if (fault_fires(kFaultTrainerExplodeLoss)) {
    lg.total *= 1e9;
  }
  if ((config_.check_finite || config_.recovery) && !std::isfinite(lg.total)) {
    throw NumericsError("training loss became non-finite at epoch " +
                        std::to_string(epoch));
  }
  const double grad_norm =
      config_.grad_clip > 0.0
          ? optim::clip_grad_norm(lg.grads, config_.grad_clip)
          : optim::grad_norm(lg.grads);
  if ((config_.check_finite || config_.recovery) && !std::isfinite(grad_norm)) {
    throw NumericsError("gradient norm became non-finite at epoch " +
                        std::to_string(epoch));
  }
  optimizer_->step(lg.grads);

  EpochRecord record;
  record.epoch = epoch;
  record.total_loss = lg.total;
  record.pde_loss = lg.pde;
  record.aux_losses = std::move(lg.aux);
  record.lr = lr;
  record.grad_norm = grad_norm;
  return record;
}

void Trainer::rebind_interior(Tensor interior) {
  points_.interior = std::move(interior);
  ++interior_generation_;
}

double Trainer::evaluate_l2() {
  if (!problem_->reference()) return std::numeric_limits<double>::quiet_NaN();
  return relative_l2(*model_, problem_->reference(), problem_->domain(),
                     config_.metric_nx, config_.metric_nt);
}

bool Trainer::stop_requested() const {
  if (stop_requested_.load(std::memory_order_relaxed)) return true;
  return config_.stop_flag != nullptr &&
         config_.stop_flag->load(std::memory_order_relaxed);
}

Trainer::Snapshot Trainer::take_snapshot(std::int64_t epoch) const {
  Snapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.params.reserve(params_.size());
  for (const auto& p : params_) snapshot.params.push_back(p.value().clone());
  snapshot.optimizer = optimizer_->export_state();
  snapshot.rng = resample_rng_.state();
  snapshot.interior = points_.interior.clone();
  return snapshot;
}

void Trainer::restore_snapshot(const Snapshot& snapshot) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& target = params_[i].mutable_value();
    const Tensor& source = snapshot.params[i];
    std::copy(source.data(), source.data() + source.numel(), target.data());
  }
  optimizer_->import_state(snapshot.optimizer);
  resample_rng_.set_state(snapshot.rng);
  rebind_interior(snapshot.interior.clone());
}

TrainingState Trainer::make_state(std::int64_t epoch) const {
  TrainingState state;
  state.epoch = epoch;
  state.lr_scale = lr_scale_;
  state.recoveries = recoveries_;
  state.best_loss = best_loss_;
  state.optimizer = optimizer_->export_state();
  state.resample_rng = resample_rng_.state();
  state.interior = points_.interior.clone();
  state.has_interior = true;
  return state;
}

void Trainer::restore_state(const TrainingState& state) {
  // Model parameters were already loaded in place by load_state.
  optimizer_->import_state(state.optimizer);
  resample_rng_.set_state(state.resample_rng);
  lr_scale_ = state.lr_scale;
  recoveries_ = state.recoveries;
  best_loss_ = state.best_loss;
  if (state.has_interior) {
    QPINN_CHECK_SHAPE(state.interior.rank() == 2 &&
                          state.interior.cols() == points_.interior.cols(),
                      "resumed collocation set has the wrong shape");
    rebind_interior(state.interior.clone());
  }
}

std::string Trainer::make_dist_sync(std::int64_t epoch) const {
  std::ostringstream out(std::ios::binary);
  write_pod(out, epoch);
  write_pod(out, lr_scale_);
  write_pod(out, recoveries_);
  write_pod(out, best_loss_);
  const RngState rng = resample_rng_.state();
  for (int i = 0; i < 4; ++i) write_pod(out, rng.s[i]);
  write_pod(out, std::uint8_t{rng.has_cached_normal});
  write_pod(out, rng.cached_normal);
  return std::move(out).str();
}

std::int64_t Trainer::apply_dist_sync(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  const auto epoch = read_pod<std::int64_t>(in, "dist sync epoch");
  lr_scale_ = read_pod<double>(in, "dist sync lr scale");
  recoveries_ = read_pod<std::int64_t>(in, "dist sync recoveries");
  best_loss_ = read_pod<double>(in, "dist sync best loss");
  RngState rng;
  for (int i = 0; i < 4; ++i) {
    rng.s[i] = read_pod<std::uint64_t>(in, "dist sync rng");
  }
  rng.has_cached_normal = read_pod<std::uint8_t>(in, "dist sync rng flag") != 0;
  rng.cached_normal = read_pod<double>(in, "dist sync rng cache");
  resample_rng_.set_state(rng);
  return epoch;
}

TrainResult Trainer::fit() {
  Stopwatch watch;
  TrainResult result;

  std::int64_t start_epoch = 0;
  if (!config_.resume_from.empty()) {
    TrainingState state;
    try {
      state = Checkpointer::load_state(config_.resume_from, named_params_);
    } catch (const IoError& primary) {
      // A torn last.qckpt must not kill the run when an intact best
      // checkpoint sits next to it.
      const std::filesystem::path requested(config_.resume_from);
      if (requested.filename() != "last.qckpt") throw;
      const std::string fallback =
          (requested.parent_path() / "best.qckpt").string();
      if (!std::filesystem::exists(fallback)) throw;
      log::warn() << problem_->name() << " cannot resume from '"
                  << config_.resume_from << "' (" << primary.what()
                  << "); falling back to '" << fallback << "'";
      state = Checkpointer::load_state(fallback, named_params_);
    }
    restore_state(state);
    // last.qckpt is written on a cadence, so the best_loss it carries can
    // predate the latest best.qckpt rotation. Resuming with that stale
    // (higher) value would let the first improving-but-worse epoch clobber
    // best.qckpt with a worse model, so fold in the loss best.qckpt itself
    // recorded. A missing or torn best file simply cannot lower the bar.
    {
      const std::filesystem::path requested(config_.resume_from);
      const std::string best_file =
          config_.checkpoint
              ? config_.checkpoint->dir + "/best.qckpt"
              : (requested.parent_path() / "best.qckpt").string();
      if (std::filesystem::exists(best_file)) {
        try {
          const TrainingState best = Checkpointer::peek_state(best_file);
          best_loss_ = std::min(best_loss_, best.best_loss);
        } catch (const IoError& e) {
          log::warn() << problem_->name() << " could not read best loss from '"
                      << best_file << "': " << e.what();
        }
      }
    }
    start_epoch = state.epoch + 1;
    log::info() << problem_->name() << " resuming from '"
                << config_.resume_from << "' at epoch " << start_epoch;
    if (config_.dist && config_.dist->rejoined()) {
      // The root's kSync state is authoritative; the checkpoint this rank
      // loaded must describe the same point in the run.
      const std::int64_t sync_epoch =
          apply_dist_sync(config_.dist->sync_payload());
      if (sync_epoch != state.epoch) {
        throw ConfigError(
            "rejoin checkpoint is at epoch " + std::to_string(state.epoch) +
            " but the root expected epoch " + std::to_string(sync_epoch));
      }
    }
  }
  result.start_epoch = start_epoch;

  std::unique_ptr<Checkpointer> checkpointer;
  if (config_.checkpoint && !(config_.dist && config_.dist->rank() != 0)) {
    // In dist mode only rank 0 owns the checkpoint files; a worker
    // writing the same paths would race the rotation.
    checkpointer = std::make_unique<Checkpointer>(*config_.checkpoint);
  }
  const auto last_completed = [&]() {
    return result.history.empty() ? start_epoch - 1
                                  : result.history.back().epoch;
  };

  const RecoveryConfig* recovery =
      config_.recovery ? &*config_.recovery : nullptr;
  Snapshot snapshot;
  if (recovery) snapshot = take_snapshot(start_epoch - 1);
  std::deque<double> window;  // trailing losses for explosion detection

  result.history.reserve(
      static_cast<std::size_t>(std::max<std::int64_t>(
          0, config_.epochs - start_epoch)));
  std::int64_t epoch = start_epoch;
  while (epoch < config_.epochs) {
    // In dist mode the only state a resample mutates before the reduction
    // is the RNG and the interior set; capturing them makes an aborted
    // epoch exactly replayable after recovery.
    RngState dist_pre_rng;
    Tensor dist_pre_interior;
    const bool dist_may_resample =
        dist_active() && config_.resample_every > 0 && epoch > 0 &&
        epoch % config_.resample_every == 0;
    if (dist_may_resample) {
      dist_pre_rng = resample_rng_.state();
      dist_pre_interior = points_.interior.clone();
    }

    EpochRecord record;
    std::string failure;
    try {
      record = step(epoch);
    } catch (const NumericsError& e) {
      if (!recovery) throw;
      failure = e.what();
    } catch (const dist::PeerLostError& e) {
      // A rank died mid-epoch: the reduction never completed, so no
      // optimizer step ran anywhere. Roll the epoch's resample back,
      // checkpoint the consistent pre-epoch state (rank 0), run the
      // recovery state machine, and retry the epoch.
      if (dist_may_resample) {
        resample_rng_.set_state(dist_pre_rng);
        rebind_interior(std::move(dist_pre_interior));
      }
      ++result.rank_failures;
      if (result.rank_failures > 8) throw;  // runaway failure loop
      if (checkpointer) {
        checkpointer->save_last(named_params_, make_state(epoch - 1));
      }
      // Only the root's policy decides the mode, so a worker reads it off
      // the membership recover() hands back: a smaller world is a degrade.
      const std::int64_t world = config_.dist->world();
      const dist::RankContext after =
          config_.dist->recover(make_dist_sync(epoch - 1));
      auto line = log::warn();
      line << problem_->name() << " lost rank " << e.rank() << " at epoch "
           << epoch << " (failure " << result.rank_failures << "); ";
      if (after.world < world) {
        line << "graceful degrade (world " << world << " -> " << after.world
             << ")";
      } else {
        line << "elastic rejoin";
      }
      continue;
    }
    if (failure.empty() && recovery && recovery->explosion_factor > 0.0 &&
        !window.empty()) {
      const double floor = *std::min_element(window.begin(), window.end());
      if (record.total_loss > recovery->explosion_factor * floor) {
        failure = "loss " + std::to_string(record.total_loss) + " exploded " +
                  std::to_string(recovery->explosion_factor) +
                  "x past the trailing minimum " + std::to_string(floor) +
                  " at epoch " + std::to_string(epoch);
      }
    }

    if (!failure.empty()) {
      restore_snapshot(snapshot);
      // Epochs past the rollback point either rerun or never happened;
      // drop their records so history matches the restored state.
      while (!result.history.empty() &&
             result.history.back().epoch > snapshot.epoch) {
        result.history.pop_back();
      }
      window.clear();
      if (recoveries_ >= recovery->max_recoveries) {
        // Graceful degradation: keep the last good state, report, stop.
        result.diverged = true;
        log::warn() << problem_->name() << " giving up after "
                    << recoveries_ << " recoveries: " << failure;
        break;
      }
      lr_scale_ *= recovery->lr_backoff;
      ++recoveries_;
      RecoveryEvent event;
      event.detected_epoch = epoch;
      event.rollback_epoch = snapshot.epoch;
      event.lr_scale = lr_scale_;
      event.reason = failure;
      log::warn() << problem_->name() << " recovery " << recoveries_
                  << ": rolling back to epoch " << snapshot.epoch
                  << " with lr scale " << lr_scale_ << " (" << failure << ")";
      result.recovery_events.push_back(std::move(event));
      epoch = snapshot.epoch + 1;
      continue;
    }

    if (config_.eval_every > 0 && (epoch % config_.eval_every == 0 ||
                                   epoch + 1 == config_.epochs)) {
      record.l2 = evaluate_l2();
    }
    if (config_.log_every > 0 && epoch % config_.log_every == 0) {
      auto line = log::info();
      line << problem_->name() << " epoch " << epoch << " loss "
           << record.total_loss;
      if (!std::isnan(record.l2)) line << " L2 " << record.l2;
    }
    const double loss = record.total_loss;
    result.history.push_back(std::move(record));

    if (recovery) {
      window.push_back(loss);
      while (static_cast<std::int64_t>(window.size()) >
             recovery->explosion_window) {
        window.pop_front();
      }
      if ((epoch + 1) % recovery->snapshot_every == 0) {
        snapshot = take_snapshot(epoch);
      }
    }

    const bool improved = loss < best_loss_;
    if (improved) best_loss_ = loss;
    // `best` tracks every improving epoch (the best model cannot be
    // reconstructed later); `last` rotates on the configured cadence.
    if (checkpointer && improved && config_.checkpoint->keep_best) {
      checkpointer->save_best(named_params_, make_state(epoch));
    }
    if (checkpointer && config_.checkpoint->every > 0 &&
        (epoch + 1) % config_.checkpoint->every == 0) {
      checkpointer->save_last(named_params_, make_state(epoch));
    }

    ++epoch;
    // Dist ranks stop on the all-reduced flag sum so every rank leaves
    // the loop at the same epoch (a local flag alone would desynchronize
    // the reduction).
    const bool stop_now =
        dist_active() ? dist_stop_sum_ > 0.0 : stop_requested();
    if (stop_now) {
      result.interrupted = epoch < config_.epochs;
      break;
    }
  }

  // Optional L-BFGS refinement (the classical Adam -> L-BFGS PINN
  // two-stage recipe). Always eager fp64 full-batch: no plan capture and
  // no mixed-precision demotion, so the curvature estimates see the fp64
  // master weights directly. Skipped after divergence or a cooperative
  // stop (both mean the Adam stage did not finish cleanly) and in dist
  // mode (the ranks would each run an unsynchronized full-batch stage).
  std::optional<double> second_stage_loss;
  if (config_.second_stage.enabled && !result.diverged &&
      !result.interrupted && !dist_active()) {
    const optim::LbfgsResult refined = run_second_stage(last_completed());
    second_stage_loss = refined.final_loss;
    log::info() << problem_->name() << " L-BFGS second stage: loss "
                << refined.final_loss << " after " << refined.iterations
                << " iterations (grad norm " << refined.final_grad_norm
                << (refined.converged ? ", converged)" : ")");
  }

  if (checkpointer && last_completed() >= 0) {
    // Final checkpoint — also the graceful-shutdown write.
    checkpointer->save_last(named_params_, make_state(last_completed()));
  }
  if (config_.dist) config_.dist->shutdown();

  result.recoveries = static_cast<std::int64_t>(result.recovery_events.size());
  result.epochs_run = static_cast<std::int64_t>(result.history.size());
  if (!result.history.empty()) {
    result.final_loss = result.history.back().total_loss;
  }
  if (second_stage_loss) result.final_loss = *second_stage_loss;
  result.final_l2 = evaluate_l2();
  result.seconds = watch.seconds();
  return result;
}

optim::LbfgsResult Trainer::run_second_stage(std::int64_t epoch) {
  const std::optional<Tensor> weights = curriculum_weights(epoch);
  const optim::LossClosure closure = [&]() {
    Shard shard;  // one full-range eager shard
    shard.r1 = points_.interior.rows();
    run_shard(ShardMode::kEager, shard, weights);
    return std::make_pair(shard.loss.item(), std::move(shard.grads));
  };
  return optim::lbfgs_minimize(params_, closure, config_.second_stage.lbfgs);
}

}  // namespace qpinn::core
