// qpinn_bench — system benchmark: time-bounded PINN training and
// open-loop surrogate serving, one workload per process, driven only
// through the library's public entry points (core::Trainer::step and
// evaluate_l2, dist::Communicator::loopback, serve::CompiledModel::compile
// and serve::QueryQueue::query).
//
//   qpinn_bench --workload <name> --seed <n> --seconds <s> [--trace <file>]
//
// Untraced, the run measures the workload for --seconds and the last line
// of stdout is one JSON object with the end-to-end metrics. With --trace,
// the same workload runs with spans recorded around every call into a
// module; afterwards each layer is probed at the workload's own shapes,
// the spans are written to <file> as a Chrome trace, and the JSON holds
// the per-layer metrics. Every other stdout line is a human-readable
// "name = value unit [n=samples]" row. Workloads, metrics and the reasons
// for both are in benchmark/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/plan_passes.hpp"
#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "dist/communicator.hpp"
#include "optim/adam.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/compiled_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/query_queue.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_f32.hpp"
#include "tensor/simd.hpp"
#include "tensor/storage_pool.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

#ifndef QPINN_BENCH_COMPILER
#define QPINN_BENCH_COMPILER "unknown"
#endif

namespace {

using qpinn::Rng;
using qpinn::Tensor;
using Clock = std::chrono::steady_clock;
namespace ad = qpinn::autodiff;
namespace core = qpinn::core;
namespace dist = qpinn::dist;
namespace plan = qpinn::autodiff::plan;
namespace serve = qpinn::serve;
namespace trace = qpinn_bench::trace;

// ---- workloads -------------------------------------------------------------

enum class Kind { kTrain, kServe };

struct Workload {
  const char* name;
  Kind kind;
  bool nls;             ///< B4 NLS soliton instead of the B1 free packet
  std::size_t threads;  ///< global pool size = interior shards per process
  bool mixed;           ///< QPINN_PRECISION=mixed plan replay
  std::int64_t ranks;   ///< loopback ranks, one Trainer each
  double target_l2;     ///< training: relative L2 the run must reach
  double rate_qps;      ///< serving: Poisson arrival rate
};

// The L2 targets are met well inside the epoch budget for every seed tried
// (benchmark/README.md, Calibration).
constexpr Workload kWorkloads[] = {
    {"tdse_b1_fp64_1t", Kind::kTrain, false, 1, false, 1, 0.40, 0.0},
    {"tdse_b1_mixed_4t", Kind::kTrain, false, 4, true, 1, 0.40, 0.0},
    {"nls_b4_dist2", Kind::kTrain, true, 1, false, 2, 0.10, 0.0},
    {"serve_open_3k", Kind::kServe, false, 1, false, 1, 0.0, 3000.0},
};

// Training budget. The LR schedule of default_train_config(400) spans
// 400 epochs; a run that has not met its target by then fails. At least
// kMinSteps epochs run, epoch 0 in set-up, so the p90 of the 110 or more
// timed steps has at least 10 samples beyond it.
constexpr std::int64_t kTrainEpochs = 400;
constexpr std::int64_t kMinSteps = 111;
constexpr std::int64_t kEvalEvery = 10;
constexpr double kTrainTailPercentile = 90.0;

// Serving: batch, queue and generator settings match bench_report's serve
// rows; three blocking generators leave one core of four to the worker.
constexpr std::int64_t kServeBatch = 8;
constexpr std::int64_t kFlushUs = 50;
constexpr int kGenerators = 3;
constexpr int kWarmupQueries = 200;
constexpr std::int64_t kCheckEvery = 64;
constexpr double kServeTailPercentile = 99.0;
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kLateSendUs = 100.0;
constexpr double kAnswerTolerance = 1e-11;

// Set-up is repeated and its median reported, so neither the cold first
// set-up nor the few warming ones after it decide the number.
constexpr int kSetupReps = 9;
constexpr double kProbePassSeconds = 0.5;

// ---- statistics and process counters --------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (q in [0, 100]) of `values`.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  Usage u;
  u.wall_s = std::chrono::duration<double>(Clock::now().time_since_epoch())
                 .count();
  u.user_s = tv(ru.ru_utime);
  u.sys_s = tv(ru.ru_stime);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Counters read before and after the measured phase.
struct Counters {
  Usage usage;
  qpinn::StoragePoolStats pool;
  std::uint64_t tasks = 0;
  plan::PlanStats plans;

  static Counters read() {
    Counters c;
    c.usage = usage_now();
    c.pool = qpinn::StoragePool::instance().stats();
    c.tasks = qpinn::global_pool().tasks_submitted();
    c.plans = plan::plan_stats();
    return c;
  }
};

/// Mean seconds per call of `body` in the best of three passes; each pass
/// runs for at least kProbePassSeconds after one warm-up call. As in
/// bench_report, interference only ever slows a pass, so the fastest pass
/// matches the quiet-window step latency the probes are compared with.
template <typename F>
double probe(const char* span_name, F&& body) {
  body();
  double best = std::numeric_limits<double>::infinity();
  for (int p = 0; p < 3; ++p) {
    trace::Scope span(span_name, p);
    const auto t0 = Clock::now();
    std::int64_t calls = 0;
    double elapsed = 0.0;
    do {
      body();
      ++calls;
      elapsed = seconds_since(t0);
    } while (elapsed < kProbePassSeconds);
    best = std::min(best, elapsed / static_cast<double>(calls));
  }
  return best;
}

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Prints a human-readable row and keeps the metric for the JSON line
  /// when `in_json`.
  void add(const std::string& name, double value, const std::string& unit,
           bool in_json, std::int64_t samples = -1) {
    std::cout << "  " << name << " = " << std::setprecision(6) << value << " "
              << unit;
    if (samples >= 0) std::cout << " [n=" << samples << "]";
    std::cout << "\n";
    if (in_json) metrics_.push_back({name, value, unit});
  }

  void fail(const std::string& why) {
    correct_ = false;
    std::cout << "  CHECK FAILED: " << why << "\n";
  }

  void count(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void print_json() {
    for (Metric& m : metrics_) {
      // JSON cannot encode inf/NaN; a non-finite metric fails the run.
      if (!std::isfinite(m.value)) {
        fail(m.name + " is not finite");
        m.value = -1.0;
      }
    }
    std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
              << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << std::max<std::int64_t>(attempted_, 1)
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::cout << (i ? ", " : "") << "\"" << m.name
                << "\": {\"value\": " << m.value << ", \"unit\": \""
                << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// ---- training --------------------------------------------------------------

std::shared_ptr<core::SchrodingerProblem> make_problem(const Workload& w) {
  return w.nls ? core::make_nls_soliton_problem()
               : core::make_free_packet_problem();
}

struct TrainSetup {
  std::shared_ptr<core::SchrodingerProblem> problem;
  std::vector<std::shared_ptr<core::FieldModel>> models;  // one per rank
  std::vector<std::shared_ptr<dist::Communicator>> comms;
  std::vector<std::unique_ptr<core::Trainer>> trainers;   // one per rank
  double first_step_s = 0.0;        ///< epoch 0: plan capture or tape warm-up
  std::vector<double> first_losses;  ///< epoch 0 loss on each rank
};

dist::TransportOptions patient_transport() {
  // A preempted rank on a shared machine is slow, not lost; the fault
  // paths are not what this workload measures.
  dist::TransportOptions opts;
  opts.message_timeout_ms = 10000;
  opts.heartbeat_timeout_ms = 60000;
  return opts;
}

core::TrainConfig train_config(const Workload& w, std::uint64_t seed) {
  core::TrainConfig config = core::default_train_config(kTrainEpochs, seed);
  config.graph = core::GraphMode::kOn;
  config.threads = w.threads;
  if (w.nls) config.sampling.n_boundary = 0;  // periodic: no walls
  return config;
}

TrainSetup setup_training(const Workload& w, std::uint64_t seed) {
  TrainSetup s;
  {
    trace::Scope span("setup.problem");
    s.problem = make_problem(w);
  }
  {
    trace::Scope span("setup.model");
    for (std::int64_t r = 0; r < w.ranks; ++r) {
      s.models.push_back(core::make_model_for(*s.problem, seed));
    }
  }
  {
    trace::Scope span("setup.runtime");
    if (w.ranks > 1) {
      s.comms = dist::Communicator::loopback(w.ranks, patient_transport());
    }
    for (std::int64_t r = 0; r < w.ranks; ++r) {
      core::TrainConfig config = train_config(w, seed);
      if (w.ranks > 1) config.dist = s.comms[static_cast<std::size_t>(r)];
      s.trainers.push_back(std::make_unique<core::Trainer>(
          s.problem, s.models[static_cast<std::size_t>(r)], config));
    }
  }
  {
    // Epoch 0 captures the plan (or, under dist, first builds the tape):
    // one-time work that belongs to set-up, not to step latency.
    trace::Scope span("setup.warmup");
    const auto t0 = Clock::now();
    s.first_losses.resize(s.trainers.size());
    const auto first_step = [&s](std::size_t r) {
      s.first_losses[r] = s.trainers[r]->step(0).total_loss;
    };
    std::vector<std::thread> others;
    for (std::size_t r = 1; r < s.trainers.size(); ++r) {
      others.emplace_back(first_step, r);
    }
    first_step(0);
    for (std::thread& t : others) t.join();
    s.first_step_s = seconds_since(t0);
  }
  return s;
}

struct TrainOutcome {
  std::vector<double> step_ms;  ///< rank 0, epochs 1 and later
  std::vector<double> step_start_s;  ///< seconds into the measured phase
  std::vector<double> eval_ms;
  std::int64_t steps = 0;
  std::int64_t failed_steps = 0;
  std::int64_t loss_mismatches = 0;  ///< epochs whose rank losses differ
  std::int64_t epochs_to_target = 0;  ///< 0: target not reached
  double time_to_target_s = 0.0;
  double final_l2 = std::numeric_limits<double>::quiet_NaN();
  double measured_s = 0.0;
  std::string first_error;
  /// Storage-pool and thread-pool counts summed over rank 0's step calls;
  /// under dist the other rank's concurrent step falls in the same windows.
  std::uint64_t step_allocs = 0;
  std::uint64_t step_reuses = 0;
  std::uint64_t step_tasks = 0;
};

/// Runs Trainer::step from epoch 1 on every rank in lockstep until the
/// measured time is spent, the target is met and kMinSteps epochs have run
/// (or the epoch budget ends). Rank r > 0 steps on its own thread; two
/// barriers per epoch let rank 0 check, evaluate and decide to stop in
/// between. Time to target counts the set-up's epoch 0.
TrainOutcome train(TrainSetup& s, const Workload& w, double seconds) {
  const std::size_t ranks = s.trainers.size();
  std::barrier<> sync(static_cast<std::ptrdiff_t>(ranks));
  std::vector<core::EpochRecord> records(ranks);
  std::vector<std::string> errors(ranks);
  bool stop = false;
  TrainOutcome out;
  const auto t0 = Clock::now();

  const auto rank_loop = [&](std::size_t r) {
    core::Trainer& trainer = *s.trainers[r];
    for (std::int64_t epoch = 1;; ++epoch) {
      const Counters before = r == 0 ? Counters::read() : Counters{};
      const auto step_t0 = Clock::now();
      try {
        trace::Scope span("core.step", epoch);
        records[r] = trainer.step(epoch);
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
      if (r == 0) {
        out.step_ms.push_back(seconds_since(step_t0) * 1e3);
        out.step_start_s.push_back(
            std::chrono::duration<double>(step_t0 - t0).count());
        const Counters after = Counters::read();
        out.step_allocs +=
            after.pool.heap_allocations - before.pool.heap_allocations;
        out.step_reuses += after.pool.pool_reuses - before.pool.pool_reuses;
        out.step_tasks += after.tasks - before.tasks;
      }
      sync.arrive_and_wait();
      if (r == 0) {
        ++out.steps;
        bool failed = false;
        for (std::size_t q = 0; q < ranks; ++q) {
          if (errors[q].empty()) continue;
          failed = true;
          if (out.first_error.empty()) out.first_error = errors[q];
        }
        for (std::size_t q = 1; q < ranks && !failed; ++q) {
          if (std::memcmp(&records[q].total_loss, &records[0].total_loss,
                          sizeof(double)) != 0) {
            ++out.loss_mismatches;
          }
        }
        if (!failed && (epoch + 1) % kEvalEvery == 0) {
          const auto eval_t0 = Clock::now();
          try {
            trace::Scope span("core.eval", epoch);
            out.final_l2 = trainer.evaluate_l2();
          } catch (const std::exception& e) {
            failed = true;
            out.first_error = e.what();
          }
          out.eval_ms.push_back(seconds_since(eval_t0) * 1e3);
          if (out.epochs_to_target == 0 && out.final_l2 <= w.target_l2) {
            out.epochs_to_target = epoch + 1;
            out.time_to_target_s = s.first_step_s + seconds_since(t0);
          }
        }
        if (failed) ++out.failed_steps;
        const bool done = seconds_since(t0) >= seconds &&
                          out.epochs_to_target > 0 &&
                          epoch + 1 >= kMinSteps;
        // A failed step leaves the ranks' states unknown: end the run.
        stop = failed || done || epoch + 1 >= kTrainEpochs;
      }
      sync.arrive_and_wait();
      if (stop) return;
    }
  };

  std::vector<std::thread> others;
  for (std::size_t r = 1; r < ranks; ++r) others.emplace_back(rank_loop, r);
  rank_loop(0);
  for (std::thread& t : others) t.join();
  out.measured_s = seconds_since(t0);
  if ((out.steps + 1) % kEvalEvery != 0 && out.failed_steps == 0) {
    out.final_l2 = s.trainers[0]->evaluate_l2();
  }
  return out;
}

// ---- training-layer probes --------------------------------------------------

/// One shard of the trainer's objective (core::Trainer::shard_loss) rebuilt
/// from public pieces: the residual's sum of squares over the full
/// interior count, plus the weighted auxiliary losses on shard 0.
struct ShardObjective {
  ad::Variable loss;
  std::vector<Tensor> aux;
};

ShardObjective shard_objective(core::SchrodingerProblem& problem,
                               core::FieldModel& model,
                               const core::CollocationSet& points,
                               const Tensor& shard, std::int64_t total_rows,
                               bool include_aux) {
  const ad::Variable X = ad::Variable::leaf(shard, /*requires_grad=*/true);
  const ad::Variable residual = problem.residual(model, X);
  const double denom = static_cast<double>(total_rows) *
                       static_cast<double>(problem.residual_dim());
  ShardObjective obj;
  obj.loss = ad::scale(ad::square_sum(residual), 1.0 / denom);
  if (include_aux) {
    for (core::LossTerm& term : problem.auxiliary_losses(model, points)) {
      if (term.weight == 0.0) continue;
      obj.aux.push_back(term.value.value());
      obj.loss = ad::add(obj.loss, ad::scale(term.value, term.weight));
    }
  }
  return obj;
}

struct ShardPlan {
  plan::ExecutionPlan plan;
  std::vector<Tensor> outputs;  ///< loss, grads, aux: what the host reads
};

struct CapturedStep {
  std::vector<ShardPlan> shards;
  std::size_t thunks = 0;
  std::size_t arena_bytes = 0;
  std::size_t demoted = 0;
  std::size_t kept_fp64 = 0;
};

/// The workload's shard row ranges inside one process: `threads` shards
/// of this rank's share of the interior (rank 0 for dist).
std::vector<std::pair<std::int64_t, std::int64_t>> shard_ranges(
    const Workload& w, std::int64_t total_rows) {
  const std::int64_t parts =
      static_cast<std::int64_t>(w.threads) * w.ranks;
  const std::int64_t rows = total_rows / parts;
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  for (std::size_t s = 0; s < w.threads; ++s) {
    const std::int64_t r0 = static_cast<std::int64_t>(s) * rows;
    ranges.emplace_back(r0, r0 + rows);
  }
  return ranges;
}

/// Captures the step the way the trainer does: one plan per shard, the
/// optimizer passes when QPINN_PLAN_OPT is on, then demotion under mixed
/// precision.
CapturedStep capture_step(const Workload& w, TrainSetup& s) {
  core::Trainer& trainer = *s.trainers[0];
  core::FieldModel& model = *s.models[0];
  const core::CollocationSet& points = trainer.collocation();
  const std::int64_t total = points.interior.rows();
  const auto ranges = shard_ranges(w, total);
  const std::vector<ad::Variable> params = model.parameters();
  CapturedStep step;
  step.shards.resize(ranges.size());
  std::vector<ad::DemoteStats> demote(ranges.size());
  qpinn::global_pool().for_each_index(ranges.size(), [&](std::size_t i) {
    ShardPlan& sp = step.shards[i];
    const Tensor shard = qpinn::kernels::slice_rows(
        points.interior, ranges[i].first, ranges[i].second);
    {
      plan::CaptureScope scope(sp.plan);
      const ShardObjective obj =
          shard_objective(*s.problem, model, points, shard, total, i == 0);
      sp.outputs.push_back(obj.loss.value());
      for (const ad::Variable& g : ad::grad(obj.loss, params)) {
        sp.outputs.push_back(g.value());
      }
      sp.outputs.insert(sp.outputs.end(), obj.aux.begin(), obj.aux.end());
    }
    if (plan::plan_opt_env_enabled()) plan::optimize_plan(sp.plan, sp.outputs);
    if (w.mixed) demote[i] = ad::demote_plan(sp.plan, sp.outputs);
  });
  for (std::size_t i = 0; i < step.shards.size(); ++i) {
    step.thunks += step.shards[i].plan.size();
    step.arena_bytes += step.shards[i].plan.arena_bytes();
    step.demoted += demote[i].demoted;
    step.kept_fp64 += demote[i].kept_fp64;
  }
  return step;
}

void eager_step(const Workload& w, TrainSetup& s) {
  core::FieldModel& model = *s.models[0];
  const core::CollocationSet& points = s.trainers[0]->collocation();
  const std::int64_t total = points.interior.rows();
  const auto ranges = shard_ranges(w, total);
  const std::vector<ad::Variable> params = model.parameters();
  qpinn::global_pool().for_each_index(ranges.size(), [&](std::size_t i) {
    const Tensor shard = qpinn::kernels::slice_rows(
        points.interior, ranges[i].first, ranges[i].second);
    const ShardObjective obj =
        shard_objective(*s.problem, model, points, shard, total, i == 0);
    (void)ad::grad(obj.loss, params);
  });
}

// ---- serving ---------------------------------------------------------------

struct ServeSetup {
  std::shared_ptr<core::SchrodingerProblem> problem;
  std::shared_ptr<core::FieldModel> model;
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::QueryQueue> queue;
};

serve::QueryQueueConfig queue_config() {
  serve::QueryQueueConfig config;
  config.workers = 1;
  config.flush_us = kFlushUs;
  return config;
}

ServeSetup setup_serving(const Workload& w, std::uint64_t seed) {
  ServeSetup s;
  {
    trace::Scope span("setup.problem");
    s.problem = make_problem(w);
  }
  {
    trace::Scope span("setup.model");
    s.model = core::make_model_for(*s.problem, seed);
  }
  {
    trace::Scope span("setup.runtime");
    s.registry = std::make_shared<serve::ModelRegistry>();
    s.registry->publish(
        serve::CompiledModel::compile(s.model, kServeBatch, {}, 1));
    s.queue = std::make_unique<serve::QueryQueue>(s.registry, queue_config());
  }
  {
    // Warm-up fills the worker's batch scratch and the pinned buffers.
    trace::Scope span("setup.warmup");
    const core::Domain d = s.problem->domain();
    for (int i = 0; i < kWarmupQueries; ++i) {
      const double f = static_cast<double>(i) / kWarmupQueries;
      (void)s.queue->query(d.x_lo + f * d.x_span(), d.t_lo + f * d.t_span());
    }
  }
  return s;
}

struct Arrival {
  double due_s = 0.0;
  double x = 0.0;
  double t = 0.0;
};

/// Poisson arrivals at `rate` over `seconds`, with query points uniform
/// over the domain; fixed by `rng` before the run starts.
std::vector<Arrival> poisson_schedule(double rate, double seconds,
                                      const core::Domain& d, Rng& rng) {
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.1));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    schedule.push_back({t, rng.uniform(d.x_lo, d.x_hi),
                        rng.uniform(d.t_lo, d.t_hi)});
  }
  return schedule;
}

/// Sleeps until shortly before `due`, then spins, so sends leave within
/// a few microseconds of their scheduled time when a generator is free.
void pace_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(80);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

struct OpenLoopOutcome {
  std::vector<double> latency_us;  ///< answer time - due time; inf: failed
  std::vector<double> lag_us;      ///< send time - due time
  std::int64_t failed = 0;
  std::vector<std::pair<std::size_t, serve::QueryResult>> sampled;
};

/// Open loop: kGenerators threads take the next arrival in schedule order,
/// wait for its due time and send a blocking query. Latency is timed from
/// the due time, so a stalled queue also charges the queries that wait
/// for a free generator.
OpenLoopOutcome open_loop(serve::QueryQueue& queue,
                          const std::vector<Arrival>& schedule,
                          bool keep_samples) {
  const std::size_t n = schedule.size();
  OpenLoopOutcome out;
  out.latency_us.assign(n, 0.0);
  out.lag_us.assign(n, 0.0);
  std::vector<serve::QueryResult> answers(keep_samples ? n : 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> failed{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto generator = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const Arrival& a = schedule[i];
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(a.due_s));
      pace_until(due);
      const auto sent = Clock::now();
      bool ok = true;
      serve::QueryResult r;
      try {
        trace::Scope span("serve.query", static_cast<std::int64_t>(i));
        r = queue.query(a.x, a.t);
      } catch (const std::exception&) {
        ok = false;
      }
      const auto done = Clock::now();
      out.lag_us[i] = std::chrono::duration<double, std::micro>(sent - due)
                          .count();
      out.latency_us[i] =
          ok ? std::chrono::duration<double, std::micro>(done - due).count()
             : std::numeric_limits<double>::infinity();
      if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
      if (keep_samples) answers[i] = r;
    }
  };
  std::vector<std::thread> gens;
  for (int g = 0; g < kGenerators; ++g) gens.emplace_back(generator);
  for (std::thread& t : gens) t.join();
  out.failed = failed.load();
  for (std::size_t i = 0; keep_samples && i < n; i += kCheckEvery) {
    if (std::isfinite(out.latency_us[i])) {
      out.sampled.emplace_back(i, answers[i]);
    }
  }
  return out;
}

/// Compares each sampled answer with an eager fp64 FieldModel::evaluate
/// over 8-row batches of the sampled points; returns the mismatches.
std::int64_t check_answers(core::FieldModel& model,
                           const std::vector<Arrival>& schedule,
                           const OpenLoopOutcome& run, double* max_err) {
  std::int64_t bad = 0;
  *max_err = 0.0;
  const std::size_t n = run.sampled.size();
  for (std::size_t b = 0; b < n; b += kServeBatch) {
    const std::size_t rows = std::min<std::size_t>(kServeBatch, n - b);
    std::vector<double> xy(kServeBatch * 2, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const Arrival& a = schedule[run.sampled[b + r].first];
      xy[2 * r] = a.x;
      xy[2 * r + 1] = a.t;
    }
    const Tensor ref = model.evaluate(
        Tensor::from_vector(std::move(xy), {kServeBatch, 2}));
    for (std::size_t r = 0; r < rows; ++r) {
      const serve::QueryResult& got = run.sampled[b + r].second;
      const auto ri = static_cast<std::int64_t>(r);
      const double err = std::max(std::abs(got.u - ref.at(ri, 0)),
                                  std::abs(got.v - ref.at(ri, 1)));
      *max_err = std::max(*max_err, err);
      if (!(err <= kAnswerTolerance)) ++bad;
    }
  }
  return bad;
}

/// Highest rate of a 3000..15000 qps ladder (1.5 s per rung) whose p99
/// latency meets kLatencyLimitUs with no failed query; 0 if none does.
double max_qps_ladder(serve::QueryQueue& queue, const core::Domain& d,
                      std::uint64_t seed) {
  double best = 0.0;
  for (int rung = 0; rung < 9; ++rung) {
    const double rate = 3000.0 + 1500.0 * rung;
    Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(rung));
    const auto schedule = poisson_schedule(rate, 1.5, d, rng);
    trace::Scope span("serve.ladder_rung", rung);
    const OpenLoopOutcome run = open_loop(queue, schedule, false);
    const double p99 = percentile(run.latency_us, 99.0);
    std::cout << "  ladder " << rate << " qps: p99 " << p99 << " us, failed "
              << run.failed << "\n";
    if (run.failed > 0 || !(p99 <= kLatencyLimitUs)) break;
    best = rate;
  }
  return best;
}

// ---- shared probes ----------------------------------------------------------

/// Seconds per call of the probes a training step is made of besides its
/// replayed or eager loss and gradients.
struct StepProbes {
  double adam_s = 0.0;
  double resample_s = 0.0;
  double allreduce_s = 0.0;
};

/// Probes every workload runs at its own shapes: the 64-wide hidden layer's
/// matmul and fused bias+tanh in fp64 and fp32, Adam over the model's
/// parameters, the relative-L2 evaluation, an LHS resample of the
/// interior, and a 2-rank all-reduce of the trainer's reduction buffer.
StepProbes common_probes(Report& rep, const Workload& w, std::int64_t rows,
                         core::SchrodingerProblem& problem,
                         core::FieldModel& model, std::uint64_t seed) {
  namespace k = qpinn::kernels;
  namespace f32 = qpinn::kernels_f32;
  Rng rng(seed ^ 0x5EEDULL);
  constexpr std::int64_t kWidth = 64;
  const Tensor a = Tensor::rand({rows, kWidth}, rng, -1.0, 1.0);
  const Tensor b = Tensor::rand({kWidth, kWidth}, rng, -1.0, 1.0);
  const Tensor bias = Tensor::rand({1, kWidth}, rng, -1.0, 1.0);
  Tensor out = Tensor::zeros({rows, kWidth});
  const double mm_flops = 2.0 * static_cast<double>(rows * kWidth * kWidth);
  const double bt_flops = 2.0 * static_cast<double>(rows * kWidth);
  const double mm_s = probe("probe.matmul", [&] { k::matmul_into(out, a, b); });
  const double bt_s =
      probe("probe.bias_tanh", [&] { k::bias_tanh_into(out, a, bias); });
  const auto n_a = static_cast<std::size_t>(rows * kWidth);
  std::vector<float> fa(n_a), fb(kWidth * kWidth), fbias(kWidth), fo(n_a);
  f32::downcast(fa.data(), a.data(), fa.size());
  f32::downcast(fb.data(), b.data(), fb.size());
  f32::downcast(fbias.data(), bias.data(), fbias.size());
  const double mm32_s = probe("probe.matmul_f32", [&] {
    f32::matmul(fa.data(), fb.data(), fo.data(), rows, kWidth, kWidth);
  });
  const double bt32_s = probe("probe.bias_tanh_f32", [&] {
    f32::bias_tanh(fa.data(), fbias.data(), fo.data(),
                   static_cast<std::size_t>(rows), kWidth);
  });
  rep.add("tensor.matmul_gflops", mm_flops / mm_s / 1e9, "GFLOP/s", true);
  rep.add("tensor.bias_tanh_gflops", bt_flops / bt_s / 1e9, "GFLOP/s", true);
  rep.add("tensor.matmul_f32_gflops", mm_flops / mm32_s / 1e9, "GFLOP/s",
          true);
  rep.add("tensor.bias_tanh_f32_gflops", bt_flops / bt32_s / 1e9, "GFLOP/s",
          true);
  // Computed, not measured: fp64 operands and result each moved once.
  const double mm_bytes =
      8.0 * static_cast<double>(rows * kWidth + kWidth * kWidth +
                                rows * kWidth);
  rep.add("tensor.matmul_flop_per_byte", mm_flops / mm_bytes, "flop/B", true);

  // Adam over a fresh copy of the model: the workload's own parameters
  // may be pinned by a serving plan.
  auto fresh = core::make_model_for(problem, seed);
  const std::vector<ad::Variable> params = fresh->parameters();
  std::vector<Tensor> grads;
  for (const ad::Variable& p : params) {
    grads.push_back(Tensor::rand(p.value().shape(), rng, -1e-3, 1e-3));
  }
  qpinn::optim::Adam adam(params, qpinn::optim::AdamConfig{});
  const double adam_s = probe("probe.adam", [&] { adam.step(grads); });
  rep.add("optim.adam_step_us", adam_s * 1e6, "us", true);

  const core::TrainConfig tc = train_config(w, seed);
  const core::Domain domain = problem.domain();
  const auto reference = problem.reference();
  rep.add("core.eval_ms",
          probe("probe.eval",
                [&] {
                  (void)core::relative_l2(model, reference, domain,
                                          tc.metric_nx, tc.metric_nt);
                }) *
              1e3,
          "ms", true);
  const std::int64_t n_interior =
      tc.sampling.n_interior_x * tc.sampling.n_interior_t;
  const double resample_s = probe("probe.resample", [&] {
    (void)core::latin_hypercube_points(domain, n_interior, rng);
  });
  rep.add("core.resample_ms", resample_s * 1e3, "ms", true);

  // The trainer's dist reduction buffer: [loss, aux, stop, grads...]. Rank 1
  // mirrors rank 0 until rank 0 raises the stop slot.
  const std::size_t n_doubles =
      static_cast<std::size_t>(model.num_parameters()) + 3;
  auto comms = dist::Communicator::loopback(2, patient_transport());
  std::thread peer([&comms, n_doubles] {
    std::vector<double> buf(n_doubles);
    for (std::int64_t epoch = 0;; ++epoch) {
      std::fill(buf.begin(), buf.end(), 0.0);
      comms[1]->allreduce(buf, epoch);
      if (buf[2] > 0.5) return;
    }
  });
  std::vector<double> buf(n_doubles);
  std::int64_t epoch = 0;
  const double ar_s = probe("probe.allreduce", [&] {
    std::fill(buf.begin(), buf.end(), 1.0);
    buf[2] = 0.0;
    comms[0]->allreduce(buf, epoch++);
  });
  std::fill(buf.begin(), buf.end(), 0.0);
  buf[2] = 1.0;
  comms[0]->allreduce(buf, epoch++);
  peer.join();
  rep.add("dist.allreduce_us", ar_s * 1e6, "us", true);
  return {adam_s, resample_s, ar_s};
}

/// Median duration of the spans called `name`, in ms (0 if none).
double span_median_ms(const std::vector<trace::Span>& spans,
                      const char* name) {
  std::vector<double> ms;
  for (const trace::Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return ms.empty() ? 0.0 : median(ms);
}

/// Per-operation pool and task counts, plus CPU use and plan fallbacks over
/// the measured phase [c0, c1].
void report_counters(Report& rep, const Counters& c0, const Counters& c1,
                     std::uint64_t allocs, std::uint64_t reuses,
                     std::uint64_t tasks, double ops) {
  const double wall = c1.usage.wall_s - c0.usage.wall_s;
  const double user = c1.usage.user_s - c0.usage.user_s;
  const double sys = c1.usage.sys_s - c0.usage.sys_s;
  rep.add("tensor.pool_allocs_per_op", static_cast<double>(allocs) / ops,
          "count", true);
  rep.add("tensor.pool_reuses_per_op", static_cast<double>(reuses) / ops,
          "count", true);
  rep.add("parallel.tasks_per_op", static_cast<double>(tasks) / ops, "count",
          true);
  rep.add("parallel.cpu_util", (user + sys) / wall, "cores", true);
  rep.add("parallel.sys_frac", user + sys > 0.0 ? sys / (user + sys) : 0.0,
          "1", true);
  rep.add("autodiff.plan_fallbacks",
          static_cast<double>(c1.plans.fallbacks - c0.plans.fallbacks),
          "count", true);
}

void report_setup(Report& rep, const std::vector<double>& setup_s,
                  bool traced) {
  rep.add("setup_s", median(setup_s), "s", !traced,
          static_cast<std::int64_t>(setup_s.size()));
  if (!traced) return;
  const auto spans = trace::Recorder::instance().snapshot();
  rep.add("core.setup_problem_ms", span_median_ms(spans, "setup.problem"),
          "ms", true);
  rep.add("core.setup_model_ms", span_median_ms(spans, "setup.model"), "ms",
          true);
  rep.add("core.setup_runtime_ms", span_median_ms(spans, "setup.runtime"),
          "ms", true);
  rep.add("core.setup_warmup_ms", span_median_ms(spans, "setup.warmup"), "ms",
          true);
}

/// Median latency of the quietest window of the run. Operations are grouped
/// by start time into windows of at least 1 s and about five operations;
/// the lowest window median is returned. Contention from other tenants of a
/// shared host comes and goes within seconds, so the quietest window
/// measures the program rather than its neighbours, as a best-of-N pass
/// does.
double quiet_median(const std::vector<double>& ms,
                    const std::vector<double>& start_s) {
  const double window_s = std::max(1.0, 5.0 * median(ms) / 1e3);
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(start_s[i] / window_s);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(ms[i]);
  }
  double best = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& w : windows) {
    if (w.size() >= 3) best = std::min(best, median(w));
  }
  return best;
}

/// Latency of the workload's operation (a step or a query), started at
/// `start_s` seconds into the measured phase. The quiet-window median is
/// the end-to-end metric; the whole-run median and the workload's fixed
/// tail percentile are reported per layer, because on a shared host their
/// run-to-run spread is wider than any bound the benchmark may set.
void report_latency(Report& rep, const std::vector<double>& ms,
                    const std::vector<double>& start_s,
                    double tail_percentile, bool traced) {
  const auto n = static_cast<std::int64_t>(ms.size());
  rep.add("op_ms_quiet_p50", quiet_median(ms, start_s), "ms", !traced, n);
  rep.add("op_ms_p50", median(ms), "ms", traced, n);
  rep.add("op_ms_tail", percentile(ms, tail_percentile), "ms", traced, n);
  rep.add("tail_percentile", tail_percentile, "%", false);
}

// ---- workloads end to end --------------------------------------------------

void run_training(Report& rep, const Workload& w, std::uint64_t seed,
                  double seconds, bool traced) {
  qpinn::set_global_threads(w.threads);
  ad::set_precision_mode(w.mixed ? ad::Precision::kMixed
                                 : ad::Precision::kFp64);
  std::vector<double> setup_s;
  TrainSetup s;
  for (int i = 0; i < kSetupReps; ++i) {
    trace::Scope span("setup", i);
    const auto t0 = Clock::now();
    s = TrainSetup{};  // release the previous set-up first
    s = setup_training(w, seed);
    setup_s.push_back(seconds_since(t0));
  }
  const Counters c0 = Counters::read();
  const TrainOutcome out = train(s, w, seconds);
  const Counters c1 = Counters::read();

  std::int64_t mismatches = out.loss_mismatches;
  for (double loss : s.first_losses) {
    mismatches += std::memcmp(&loss, &s.first_losses[0], sizeof loss) != 0;
  }
  rep.count(out.steps + 1, out.failed_steps);
  if (out.failed_steps > 0) rep.fail("a step threw: " + out.first_error);
  if (out.epochs_to_target == 0) {
    rep.fail("relative L2 never reached " + std::to_string(w.target_l2) +
             " within " + std::to_string(out.steps + 1) + " epochs");
  }
  if (mismatches > 0) {
    rep.fail(std::to_string(mismatches) +
             " epochs where the ranks' losses were not bit-identical");
  }
  if (!std::isfinite(out.final_l2)) rep.fail("final relative L2 not finite");

  report_setup(rep, setup_s, traced);
  report_latency(rep, out.step_ms, out.step_start_s, kTrainTailPercentile,
                 traced);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", !traced);
  rep.add("epochs", static_cast<double>(out.steps + 1), "count", false);
  rep.add("measured_s", out.measured_s, "s", false);
  rep.add("first_step_ms", s.first_step_s * 1e3, "ms", false);
  rep.add("time_to_target_s", out.time_to_target_s, "s", false);
  rep.add("target_l2", w.target_l2, "1", false);
  rep.add("core.epochs_to_target", static_cast<double>(out.epochs_to_target),
          "count", traced);
  rep.add("core.final_rel_l2", out.final_l2, "1", traced);
  rep.add("eval_span_ms", median(out.eval_ms), "ms", false,
          static_cast<std::int64_t>(out.eval_ms.size()));
  if (!traced) return;

  report_counters(rep, c0, c1, out.step_allocs, out.step_reuses,
                  out.step_tasks, static_cast<double>(out.steps));
  // Rank skew: per epoch, the gap between the two ranks' step-span ends.
  std::map<std::int64_t, std::vector<std::int64_t>> step_ends;
  for (const trace::Span& sp : trace::Recorder::instance().snapshot()) {
    if (std::strcmp(sp.name, "core.step") == 0) {
      step_ends[sp.request].push_back(sp.end_ns);
    }
  }
  std::vector<double> gap_ms;
  for (const auto& [epoch, ends] : step_ends) {
    if (ends.size() == 2) {
      gap_ms.push_back(std::abs(static_cast<double>(ends[0] - ends[1])) /
                       1e6);
    }
  }
  const double step_p50 = median(out.step_ms);
  rep.add("dist.rank_wait_frac",
          gap_ms.empty() ? 0.0 : median(gap_ms) / step_p50, "1", true);
  const dist::CommStats comm =
      s.comms.empty() ? dist::CommStats{} : s.comms[0]->stats();
  rep.add("dist.retransmits", static_cast<double>(comm.retransmits), "count",
          true);
  rep.add("dist.aborts", static_cast<double>(comm.aborts), "count", true);
  // Serving layers do no work in a training workload.
  for (const char* name : {"serve.queue_wait_frac", "serve.batch_fill",
                           "serve.partial_batch_frac",
                           "serve.late_send_frac"}) {
    rep.add(name, 0.0, "1", true);
  }
  rep.add("serve.max_qps", 0.0, "1/s", true);

  // Layer probes at the workload's shapes, after the workload is done.
  const auto ranges =
      shard_ranges(w, s.trainers[0]->collocation().interior.rows());
  const std::int64_t rows = ranges.front().second - ranges.front().first;
  CapturedStep captured;
  const double capture_s =
      probe("probe.capture", [&] { captured = capture_step(w, s); });
  const double replay_s = probe("probe.replay", [&] {
    qpinn::global_pool().for_each_index(
        captured.shards.size(),
        [&](std::size_t i) { captured.shards[i].plan.replay(); });
  });
  const double eager_s = probe("probe.eager", [&] { eager_step(w, s); });
  rep.add("autodiff.capture_ms", capture_s * 1e3, "ms", true);
  rep.add("autodiff.replay_us", replay_s * 1e6, "us", true);
  rep.add("autodiff.eager_us", eager_s * 1e6, "us", true);
  rep.add("autodiff.plan_thunks", static_cast<double>(captured.thunks),
          "count", true);
  rep.add("autodiff.plan_arena_kib",
          static_cast<double>(captured.arena_bytes) / 1024.0, "KiB", true);
  rep.add("autodiff.demoted_thunks", static_cast<double>(captured.demoted),
          "count", true);
  rep.add("autodiff.kept_fp64_thunks",
          static_cast<double>(captured.kept_fp64), "count", true);
  const StepProbes step =
      common_probes(rep, w, rows, *s.problem, *s.models[0], seed);
  // Attribution check: the loss-and-gradient path the workload runs (replay,
  // or eager under dist) plus Adam, the resample and, under dist, the
  // all-reduce should account for the quiet-window step.
  const double parts_s = (w.ranks > 1 ? eager_s + step.allreduce_s
                                      : replay_s) +
                         step.adam_s + step.resample_s;
  rep.add("layer_sum_over_step",
          parts_s / (quiet_median(out.step_ms, out.step_start_s) / 1e3), "1",
          false);
}

void run_serving(Report& rep, const Workload& w, std::uint64_t seed,
                 double seconds, bool traced) {
  qpinn::set_global_threads(1);
  ad::set_precision_mode(ad::Precision::kFp64);
  std::vector<double> setup_s;
  ServeSetup s;
  for (int i = 0; i < kSetupReps; ++i) {
    trace::Scope span("setup", i);
    const auto t0 = Clock::now();
    s = ServeSetup{};  // release the previous set-up first
    s = setup_serving(w, seed);
    setup_s.push_back(seconds_since(t0));
  }
  const core::Domain domain = s.problem->domain();
  Rng rng(seed);
  const std::vector<Arrival> schedule =
      poisson_schedule(w.rate_qps, seconds, domain, rng);

  const serve::QueueStats q0 = s.queue->stats();
  const Counters c0 = Counters::read();
  const OpenLoopOutcome out = open_loop(*s.queue, schedule, true);
  const Counters c1 = Counters::read();
  const serve::QueueStats q1 = s.queue->stats();
  const double n = static_cast<double>(schedule.size());

  double max_err = 0.0;
  const std::int64_t wrong = check_answers(*s.model, schedule, out, &max_err);
  rep.count(static_cast<std::int64_t>(schedule.size()), out.failed + wrong);
  if (out.failed > 0) {
    rep.fail(std::to_string(out.failed) + " queries threw");
  }
  if (wrong > 0) {
    rep.fail(std::to_string(wrong) + " sampled answers differ from eager "
             "evaluation by more than 1e-11");
  }
  if (out.sampled.empty()) rep.fail("no answers sampled for checking");

  std::vector<double> latency_ms;
  latency_ms.reserve(out.latency_us.size());
  for (double us : out.latency_us) latency_ms.push_back(us / 1e3);
  report_setup(rep, setup_s, traced);
  std::vector<double> due_s;
  for (const Arrival& a : schedule) due_s.push_back(a.due_s);
  report_latency(rep, latency_ms, due_s, kServeTailPercentile, traced);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", !traced);
  rep.add("rate_qps", w.rate_qps, "1/s", false);
  rep.add("achieved_qps", n / (c1.usage.wall_s - c0.usage.wall_s), "1/s",
          false);
  rep.add("latency_us_p999", percentile(out.latency_us, 99.9), "us", false,
          static_cast<std::int64_t>(n));
  rep.add("gen_lag_us_p99", percentile(out.lag_us, 99.0), "us", false,
          static_cast<std::int64_t>(n));
  rep.add("answers_checked", static_cast<double>(out.sampled.size()), "count",
          false);
  rep.add("answer_max_abs_err", max_err, "1", false);
  if (!traced) return;

  report_counters(rep, c0, c1,
                  c1.pool.heap_allocations - c0.pool.heap_allocations,
                  c1.pool.pool_reuses - c0.pool.pool_reuses,
                  c1.tasks - c0.tasks, n);
  const double batches = static_cast<double>(q1.batches - q0.batches);
  const double queries = static_cast<double>(q1.queries - q0.queries);
  std::int64_t late = 0;
  for (double us : out.lag_us) late += us > kLateSendUs ? 1 : 0;
  rep.add("serve.batch_fill",
          batches > 0 ? queries / (batches * kServeBatch) : 0.0, "1", true);
  rep.add("serve.partial_batch_frac",
          batches > 0
              ? static_cast<double>(q1.partial_batches - q0.partial_batches) /
                    batches
              : 0.0,
          "1", true);
  rep.add("serve.late_send_frac", static_cast<double>(late) / n, "1", true);
  rep.add("dist.rank_wait_frac", 0.0, "1", true);
  rep.add("dist.retransmits", 0.0, "count", true);
  rep.add("dist.aborts", 0.0, "count", true);
  rep.add("core.epochs_to_target", 0.0, "count", true);
  const core::TrainConfig tc = train_config(w, seed);
  rep.add("core.final_rel_l2",
          core::relative_l2(*s.model, s.problem->reference(), domain,
                            tc.metric_nx, tc.metric_nt),
          "1", true);
  rep.add("serve.max_qps", max_qps_ladder(*s.queue, domain, seed), "1/s",
          true);

  // Layer probes at the serving shapes: one 8-row batch.
  const std::shared_ptr<const serve::CompiledModel> compiled =
      s.registry->current();
  std::vector<double> xy(kServeBatch * 2), uv(kServeBatch * 2);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kServeBatch); ++i) {
    xy[2 * i] = schedule[i].x;
    xy[2 * i + 1] = schedule[i].t;
  }
  const Tensor X = Tensor::from_vector(xy, {kServeBatch, 2});
  const double capture_s = probe("probe.capture", [&] {
    (void)serve::CompiledModel::compile(s.model, kServeBatch, {}, 1);
  });
  const double replay_s = probe("probe.replay", [&] {
    compiled->evaluate_into(xy.data(), kServeBatch, uv.data());
  });
  const double eager_s =
      probe("probe.eager", [&] { (void)s.model->evaluate(X); });
  rep.add("autodiff.capture_ms", capture_s * 1e3, "ms", true);
  rep.add("autodiff.replay_us", replay_s * 1e6, "us", true);
  rep.add("autodiff.eager_us", eager_s * 1e6, "us", true);
  rep.add("autodiff.plan_thunks", static_cast<double>(compiled->plan_size()),
          "count", true);
  rep.add("autodiff.plan_arena_kib",
          static_cast<double>(compiled->arena_bytes()) / 1024.0, "KiB", true);
  rep.add("autodiff.demoted_thunks", 0.0, "count", true);
  rep.add("autodiff.kept_fp64_thunks", 0.0, "count", true);
  const double p50_us = median(out.latency_us);
  rep.add("serve.queue_wait_frac",
          std::max(0.0, p50_us - replay_s * 1e6) / p50_us, "1", true);
  common_probes(rep, w, kServeBatch, *s.problem, *s.model, seed);
}

void print_self_times() {
  std::cout << "  span self times (ms): name count total self\n";
  for (const auto& [name, t] :
       trace::totals_by_name(trace::Recorder::instance().snapshot())) {
    std::cout << "    " << name << " " << t.count << " " << t.total_ms << " "
              << t.self_ms << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  qpinn::CliParser cli("qpinn_bench",
                       "System benchmark: one workload per process "
                       "(see benchmark/README.md).");
  cli.add_string("workload", "", "workload name");
  cli.add_int("seed", 7, "seed for model init, collocation and queries");
  cli.add_int("seconds", 20, "measured time per run");
  cli.add_string("trace", "", "record spans and write a Chrome trace here");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "qpinn_bench: " << e.what() << "\n" << cli.help_text();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cli.get_string("workload") == w.name) workload = &w;
  }
  const long long seconds = cli.get_int("seconds");
  if (workload == nullptr || seconds < 1 || seconds > 600 ||
      cli.get_int("seed") < 0) {
    std::cerr << "qpinn_bench: need --workload one of";
    for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
    std::cerr << ", --seed >= 0 and --seconds in [1, 600]\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string trace_path = cli.get_string("trace");
  const bool traced = !trace_path.empty();
  if (traced) trace::Recorder::instance().enable();

  std::cout << "# qpinn_bench workload=" << workload->name
            << " seed=" << seed << " seconds=" << seconds
            << " traced=" << (traced ? 1 : 0)
            << " nproc=" << std::thread::hardware_concurrency()
            << " isa=" << qpinn::simd::isa_name(qpinn::simd::active_isa())
            << " compiler=\"" << QPINN_BENCH_COMPILER << "\"\n";
  Report rep;
  try {
    if (workload->kind == Kind::kTrain) {
      run_training(rep, *workload, seed, static_cast<double>(seconds),
                   traced);
    } else {
      run_serving(rep, *workload, seed, static_cast<double>(seconds), traced);
    }
  } catch (const std::exception& e) {
    std::cerr << "qpinn_bench: " << workload->name << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (traced) {
    print_self_times();
    if (!trace::Recorder::instance().write_chrome_json(trace_path)) {
      std::cerr << "qpinn_bench: cannot write trace " << trace_path << "\n";
      return 1;
    }
    std::cout << "  trace written to " << trace_path << "\n";
  }
  rep.print_json();
  return 0;
}
