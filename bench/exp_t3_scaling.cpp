// T3 — strong-scaling tables: wall-clock per training step versus worker
// threads (T3) and versus loopback process ranks (T3b) at fixed problem
// size, plus the serial/parallel loss agreement that certifies each
// decomposition is exact.
//
// Shape expected from the paper family (ICPP systems angle): near-linear
// speedup while shards stay large, bounded by the machine's cores (the
// "hw threads" column); the decomposition itself is validated by the
// loss-agreement column. Step times are medians over the timed steps, so
// one descheduled step on a shared machine does not skew a row. Each row
// also records the cores it used over its timed steps; a row the host
// serialized (cores_used.hpp) is re-timed, and marked if it stays so.
#include "cores_used.hpp"
#include "exp_common.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "dist/communicator.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace qpinn;
using namespace qpinn::core;

/// One loopback rank of the T3b job: trainer + its communicator.
struct RankJob {
  std::shared_ptr<core::FieldModel> model;
  std::unique_ptr<Trainer> trainer;
};

/// Median wall-clock seconds of step(r) over r = 0 .. repeats-1.
template <class Step>
double median_seconds(int repeats, Step step) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    step(r);
    times.push_back(watch.seconds());
  }
  const auto mid = times.begin() + static_cast<std::ptrdiff_t>(repeats / 2);
  std::nth_element(times.begin(), mid, times.end());
  return *mid;
}

TrainConfig t3_config(std::int64_t side) {
  TrainConfig config = exp::standard_train(1, 5);
  config.sampling.n_interior_x = side;
  config.sampling.n_interior_t = side;
  config.resample_every = 0;
  return config;
}

RankJob make_rank_job(std::int64_t side,
                      std::shared_ptr<dist::Communicator> comm) {
  RankJob job;
  auto problem = make_free_packet_problem();
  job.model = exp::standard_model(*problem, 5);
  TrainConfig config = t3_config(side);
  config.dist = std::move(comm);
  job.trainer = std::make_unique<Trainer>(problem, job.model, config);
  return job;
}

/// Step time and final loss of one timed window.
struct Window {
  double step_s = 0.0;
  double loss = 0.0;
};

std::string fmt_cores(const bench::CoresTiming<Window>& t) {
  return Table::fmt(t.cores, 2);
}

std::string fmt_serialized(const bench::CoresTiming<Window>& t) {
  return t.serialized ? "yes" : "no";
}

}  // namespace

int main() {
  log::set_level(log::Level::kWarn);
  exp::print_mode_banner("T3: data-parallel strong scaling");
  const int repeats = exp::full() ? 30 : 20;
  const std::int64_t side = exp::full() ? 40 : 24;

  auto problem = make_free_packet_problem();

  // One window: a fresh trainer at `threads` shards on a pool of
  // `threads`, a warm-up step (capture), then `repeats` timed steps. Every
  // window computes the same steps, so a re-timed row keeps its loss.
  const auto threads_window = [&](std::size_t threads) {
    return [&, threads](bench::CoresUsed& meter) {
      set_global_threads(threads);
      TrainConfig config = t3_config(side);
      config.threads = threads;
      Trainer trainer(problem, exp::standard_model(*problem, 5), config);
      trainer.step(0);
      Window w;
      meter.reset();
      w.step_s = median_seconds(
          repeats, [&](int) { w.loss = trainer.step(0).total_loss; });
      return w;
    };
  };

  // Serial reference: step time and loss for the speedup and agreement
  // columns.
  const Window serial = bench::time_threads(1, threads_window(1)).value;

  Table table({"threads", "hw threads", "step ms", "speedup", "efficiency",
               "cores used", "host serialized", "loss rel diff vs serial"});
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    const auto t = bench::time_threads(threads, threads_window(threads));
    const double speedup = serial.step_s / t.value.step_s;
    table.add_row(
        {std::to_string(threads),
         std::to_string(std::thread::hardware_concurrency()),
         Table::fmt(t.value.step_s * 1e3, 2), Table::fmt(speedup, 2),
         Table::fmt(speedup / static_cast<double>(threads), 2), fmt_cores(t),
         fmt_serialized(t),
         Table::fmt_sci(std::abs(t.value.loss - serial.loss) /
                            std::max(1e-300, serial.loss),
                        2)});
  }
  set_global_threads(default_num_threads());
  exp::emit(table, "T3 - training-step strong scaling", "exp_t3_scaling.csv");

  // T3b — the same strong-scaling question at the process level: loopback
  // dist ranks (socketpair transport, rank-ordered all-reduce) instead of
  // pool threads. The agreement column compares each world against a
  // single-process run with threads=world shards — the dist runtime's
  // bit-identity contract — so 0 certifies that going multi-process
  // changes nothing about the mathematics.
  Table table2({"ranks", "step ms", "speedup", "efficiency", "cores used",
                "host serialized", "loss rel diff vs threads=N"});
  for (const std::int64_t world : {1, 2, 4}) {
    // Reference: one process, `world` logical shards, pool size 1 — the
    // epoch schedule (0 warmup, then 1..repeats) matches the dist job.
    double ref_loss = 0.0;
    {
      set_global_threads(1);
      TrainConfig config = t3_config(side);
      config.threads = static_cast<std::size_t>(world);
      Trainer trainer(problem, exp::standard_model(*problem, 5), config);
      trainer.step(0);
      for (int r = 1; r <= repeats; ++r) {
        ref_loss = trainer.step(r).total_loss;
      }
    }

    // One window is a fresh job. Worker ranks run the full epoch schedule
    // on background threads; the collectives hold every rank in lockstep
    // with the timed root, so the root's wall clock is the job's.
    const auto t = bench::time_threads(
        static_cast<std::size_t>(world), [&](bench::CoresUsed& meter) {
          set_global_threads(1);
          auto comms = dist::Communicator::loopback(world);
          std::vector<RankJob> jobs;
          for (std::int64_t r = 0; r < world; ++r) {
            jobs.push_back(
                make_rank_job(side, comms[static_cast<std::size_t>(r)]));
          }
          std::vector<std::thread> workers;
          for (std::int64_t r = 1; r < world; ++r) {
            workers.emplace_back([&jobs, r, repeats] {
              Trainer& t = *jobs[static_cast<std::size_t>(r)].trainer;
              for (int e = 0; e <= repeats; ++e) t.step(e);
            });
          }
          jobs[0].trainer->step(0);  // warm-up
          Window w;
          meter.reset();
          w.step_s = median_seconds(repeats, [&](int r) {
            w.loss = jobs[0].trainer->step(r + 1).total_loss;
          });
          for (auto& worker : workers) worker.join();
          return w;
        });

    const double speedup = serial.step_s / t.value.step_s;
    table2.add_row(
        {std::to_string(world), Table::fmt(t.value.step_s * 1e3, 2),
         Table::fmt(speedup, 2),
         Table::fmt(speedup / static_cast<double>(world), 2), fmt_cores(t),
         fmt_serialized(t),
         Table::fmt_sci(std::abs(t.value.loss - ref_loss) /
                            std::max(1e-300, ref_loss),
                        2)});
  }
  set_global_threads(default_num_threads());
  exp::emit(table2, "T3b - process-level strong scaling (loopback ranks)",
            "exp_t3b_dist_scaling.csv");
  std::printf(
      "note: speedup is bounded by the machine's hardware threads; the\n"
      "agreement columns certify the shard decompositions are exact\n"
      "regardless of available cores (process ranks reproduce threads=N\n"
      "bit-for-bit by construction of the rank-ordered reduction).\n");
  return 0;
}
