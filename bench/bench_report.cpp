// bench_report — machine-readable performance report for the hot path.
//
// Times the tensor / autodiff / training-step suites and writes a JSON
// report (default BENCH_qpinn.json) with ns/op plus allocations/op and
// pool-reuses/op taken from the storage pool's own counters. The summary
// block measures the pool's allocation win directly: the same training
// step is run with the pool enabled and disabled and the per-step heap
// allocation counts are compared (alloc_reduction_x).
//
// CI runs `bench_report --quick` and diffs the report against the
// committed baseline with tools/bench_compare.py (warn-only — timing on
// shared runners is noisy; the allocation counts are exact and stable).
//
// Usage:
//   bench_report [--quick] [--out BENCH_qpinn.json] [--threads N]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/plan_passes.hpp"
#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/field_model.hpp"
#include "core/trainer.hpp"
#include "cores_used.hpp"
#include "dist/communicator.hpp"
#include "serve/compiled_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/query_queue.hpp"
#include "optim/adam.hpp"
#include "optim/lbfgs.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_f32.hpp"
#include "tensor/simd.hpp"
#include "tensor/storage_pool.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using qpinn::Rng;
using qpinn::Shape;
using qpinn::StoragePool;
using qpinn::Stopwatch;
using qpinn::Tensor;
namespace ad = qpinn::autodiff;
namespace k = qpinn::kernels;

struct Result {
  std::string suite;
  std::string op;
  std::string shape;
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
  double reuses_per_op = 0.0;
  double gflops = 0.0;  // 0 when the op has no meaningful flop count
  // Threads the row keeps busy over its whole timed window (a thread row:
  // one 256^3 matmul dispatched over the pool; 1 otherwise), the cores it
  // used there, and whether the host serialized it (cores_used.hpp). A
  // dist row is not a thread row: its rank-ordered all-reduce runs on the
  // root alone, so its cores stay below the bar even when spread.
  std::size_t threads = 1;
  double cores = 0.0;
  bool host_serialized = false;
};

// Best-of-passes count, shared with the dist rows: the worker-rank threads
// must issue exactly the 1 + kPasses*reps collective calls the timed body
// makes, or the loopback ranks deadlock.
constexpr int kPasses = 3;

/// Times `body` as a row of `threads` busy threads: re-timed while the host
/// serializes it (qpinn::bench::time_threads), and the cores it used
/// recorded.
template <typename F>
Result time_op(const std::string& suite, const std::string& op,
               const std::string& shape, int reps, F body,
               double flops_per_op = 0.0, std::size_t threads = 1) {
  body();  // warmup: fills the pool's free lists and touches the caches
  StoragePool& pool = StoragePool::instance();
  const auto window = [&](qpinn::bench::CoresUsed& meter) {
    Result res;
    const auto s0 = pool.stats();
    meter.reset();
    // Best-of-passes: interference spikes (shared runners, frequency
    // ramps) only ever make a pass slower, so the minimum is the robust
    // estimate.
    double ns = std::numeric_limits<double>::infinity();
    for (int p = 0; p < kPasses; ++p) {
      Stopwatch sw;
      for (int r = 0; r < reps; ++r) body();
      ns = std::min(ns, sw.seconds() * 1e9 / reps);
    }
    const auto s1 = pool.stats();
    res.ns_per_op = ns;
    const int total_reps = reps * kPasses;
    res.allocs_per_op =
        static_cast<double>(s1.heap_allocations - s0.heap_allocations) /
        total_reps;
    res.reuses_per_op =
        static_cast<double>(s1.pool_reuses - s0.pool_reuses) / total_reps;
    return res;
  };
  const auto timed = qpinn::bench::time_threads(threads, window);
  Result res = timed.value;
  res.suite = suite;
  res.op = op;
  res.shape = shape;
  if (flops_per_op > 0.0 && res.ns_per_op > 0.0) {
    res.gflops = flops_per_op / res.ns_per_op;
  }
  res.threads = threads;
  res.cores = timed.cores;
  res.host_serialized = timed.serialized;
  return res;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// Six-parameter tanh MLP (2 -> 64 -> 64 -> 1) on a 256-point batch — the
/// same network scale the PINN examples train. The dist rows shard the
/// batch, so the row count is a parameter.
struct BenchModel {
  ad::Variable w1, b1, w2, b2, w3, b3;
  ad::Variable x;
  std::vector<ad::Variable> params;

  explicit BenchModel(Rng& rng, std::int64_t rows = 256)
      : w1(ad::Variable::leaf(Tensor::randn({2, 64}, rng, 0.0, 0.3))),
        b1(ad::Variable::leaf(Tensor::zeros({1, 64}))),
        w2(ad::Variable::leaf(Tensor::randn({64, 64}, rng, 0.0, 0.3))),
        b2(ad::Variable::leaf(Tensor::zeros({1, 64}))),
        w3(ad::Variable::leaf(Tensor::randn({64, 1}, rng, 0.0, 0.3))),
        b3(ad::Variable::leaf(Tensor::zeros({1, 1}))),
        x(ad::Variable::constant(Tensor::rand({rows, 2}, rng, -1.0, 1.0))),
        params{w1, b1, w2, b2, w3, b3} {}

  ad::Variable loss() const {
    ad::Variable h = ad::tanh(ad::add(ad::matmul(x, w1), b1));
    h = ad::tanh(ad::add(ad::matmul(h, w2), b2));
    return ad::mean_all(ad::square(ad::add(ad::matmul(h, w3), b3)));
  }
};

}  // namespace

int main(int argc, char** argv) {
  qpinn::CliParser cli(
      "bench_report",
      "Timed perf suites with pool allocation counters. Every row carries a "
      "gflops estimate; transcendentals (tanh etc.) count as 1 flop by "
      "convention, so composite rows stay comparable across kernels.");
  cli.add_flag("quick", "fewer repetitions (CI configuration)");
  cli.add_string("out", "BENCH_qpinn.json", "output JSON path");
  cli.add_int("threads", 0, "worker threads (0 = default)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  if (cli.get_int("threads") > 0) {
    qpinn::set_global_threads(static_cast<std::size_t>(cli.get_int("threads")));
  }
  const bool quick = cli.get_flag("quick");
  const int r_small = quick ? 200 : 2000;   // cheap ops
  const int r_mid = quick ? 50 : 500;       // mid-size matmuls
  const int r_big = quick ? 10 : 100;       // 256x256 matmuls, train step

  Rng rng(7);
  StoragePool& pool = StoragePool::instance();
  std::vector<Result> results;
  double speedup_sincos = 1.0;

  // ---- tensor suite ------------------------------------------------------
  {
    const Tensor a = Tensor::rand({256, 256}, rng, -1.0, 1.0);
    const Tensor b = Tensor::rand({256, 256}, rng, -1.0, 1.0);
    const Tensor a64 = Tensor::rand({64, 64}, rng, -1.0, 1.0);
    const Tensor b64 = Tensor::rand({64, 64}, rng, -1.0, 1.0);
    const Tensor v1 = Tensor::rand({1 << 16}, rng, -1.0, 1.0);
    const Tensor v2 = Tensor::rand({1 << 16}, rng, -1.0, 1.0);
    Tensor acc = v1.clone();
    const double n_elem = 256.0 * 256.0;
    const double n_vec = static_cast<double>(1 << 16);
    results.push_back(time_op("tensor", "add", "256x256", r_mid,
                              [&] { k::add(a, b); }, n_elem));
    results.push_back(time_op("tensor", "mul", "256x256", r_mid,
                              [&] { k::mul(a, b); }, n_elem));
    results.push_back(time_op("tensor", "matmul", "64x64x64", r_mid,
                              [&] { k::matmul(a64, b64); },
                              2.0 * 64.0 * 64.0 * 64.0));
    // One 256^3 product is one dispatched call over the whole pool.
    const std::size_t pool_threads = qpinn::global_pool().size();
    results.push_back(time_op("tensor", "matmul", "256x256x256", r_big,
                              [&] { k::matmul(a, b); }, 2.0 * 256.0 * n_elem,
                              pool_threads));
    results.push_back(time_op("tensor", "matmul_tn", "256x256x256", r_big,
                              [&] { k::matmul_tn(a, b); },
                              2.0 * 256.0 * n_elem, pool_threads));
    results.push_back(time_op("tensor", "matmul_nt", "256x256x256", r_big,
                              [&] { k::matmul_nt(a, b); },
                              2.0 * 256.0 * n_elem, pool_threads));
    // The B1 backward shapes: weight gradient x^T g and input gradient
    // g W^T of a 64-wide hidden layer over 900 collocation points.
    const Tensor x900 = Tensor::rand({900, 64}, rng, -1.0, 1.0);
    const Tensor g900 = Tensor::rand({900, 64}, rng, -1.0, 1.0);
    const double b1_flops = 2.0 * 900.0 * 64.0 * 64.0;
    results.push_back(time_op("tensor", "matmul_tn", "900x64x64", r_mid,
                              [&] { k::matmul_tn(x900, g900); }, b1_flops));
    results.push_back(time_op("tensor", "matmul_nt", "900x64x64^T", r_mid,
                              [&] { k::matmul_nt(g900, b64); }, b1_flops));
    // The B1 output layer: 64 hidden units to the 2 field components, and
    // its weight gradient. Two output columns run the micro-kernels'
    // narrow fringe, not the 8-column vector tile.
    {
      Rng narrow_rng(9);
      const Tensor w_out = Tensor::rand({64, 2}, narrow_rng, -1.0, 1.0);
      const Tensor g_out = Tensor::rand({900, 2}, narrow_rng, -1.0, 1.0);
      const double narrow_flops = 2.0 * 900.0 * 64.0 * 2.0;
      results.push_back(time_op("tensor", "matmul", "900x64x2", r_mid,
                                [&] { k::matmul(x900, w_out); },
                                narrow_flops));
      results.push_back(time_op("tensor", "matmul_tn", "64x900x2", r_mid,
                                [&] { k::matmul_tn(x900, g_out); },
                                narrow_flops));
    }
    // The Fourier-feature block: sin and cos of 2*pi*x*B over the 900 B1
    // collocation points and 64 features (one flop per element), and the
    // fp32 sin of one of the mixed workload's four shards.
    {
      Rng rff_rng(11);
      const Tensor rff = Tensor::rand({900, 64}, rff_rng, -20.0, 20.0);
      const double rff_elems = 900.0 * 64.0;
      results.push_back(time_op("tensor", "sin", "900x64", r_mid,
                                [&] { k::sin(rff); }, rff_elems));
      results.push_back(time_op("tensor", "cos", "900x64", r_mid,
                                [&] { k::cos(rff); }, rff_elems));
      namespace f32 = qpinn::kernels_f32;
      const std::size_t shard = 225 * 64;
      std::vector<float> fx(shard), fo(shard);
      f32::downcast(fx.data(), rff.data(), shard);
      results.push_back(time_op(
          "tensor", "sin_f32", "225x64", r_small,
          [&] { f32::sin(fx.data(), fo.data(), shard); },
          static_cast<double>(shard)));
      // The table sweep against the libm loop it replaced, one thread
      // each, timed back to back on the same buffers.
      const std::size_t ne = static_cast<std::size_t>(rff.numel());
      const double* px = rff.data();
      std::vector<double> out(ne);
      const auto& table = qpinn::simd::active();
      const Result with_table =
          time_op("tensor", "sincos-table", "900x64", r_mid, [&] {
            table.sin(px, out.data(), ne);
            table.cos(px, out.data(), ne);
          });
      const Result with_libm =
          time_op("tensor", "sincos-libm", "900x64", r_mid, [&] {
            for (std::size_t i = 0; i < ne; ++i) out[i] = std::sin(px[i]);
            for (std::size_t i = 0; i < ne; ++i) out[i] = std::cos(px[i]);
          });
      speedup_sincos = with_libm.ns_per_op / with_table.ns_per_op;
    }
    results.push_back(time_op("tensor", "dot", "65536", r_small,
                              [&] { k::dot(v1, v2); }, 2.0 * n_vec));
    results.push_back(time_op("tensor", "axpy_inplace", "65536", r_small,
                              [&] { k::axpy_inplace(acc, 0.5, v2); },
                              2.0 * n_vec));
    results.push_back(time_op("tensor", "sum_to", "256x256->1x256", r_small,
                              [&] { k::sum_to(a, Shape{1, 256}); }, n_elem));

    // Fused kernels introduced by the SIMD layer.
    const Tensor w_col = Tensor::rand({256, 1}, rng, 0.0, 1.0);
    const Tensor bias_row = Tensor::rand({1, 256}, rng, -1.0, 1.0);
    Tensor param = Tensor::rand({1 << 16}, rng, -1.0, 1.0);
    Tensor grad = Tensor::rand({1 << 16}, rng, -1.0, 1.0);
    Tensor m = Tensor::zeros({1 << 16});
    Tensor v = Tensor::zeros({1 << 16});
    k::AdamStepConfig adam_cfg;
    adam_cfg.lr = 1e-3;
    adam_cfg.beta1 = 0.9;
    adam_cfg.beta2 = 0.999;
    adam_cfg.eps = 1e-8;
    adam_cfg.bias_corr1 = 0.1;
    adam_cfg.bias_corr2 = 0.001;
    results.push_back(time_op("tensor", "square_sum", "256x256", r_mid,
                              [&] { k::square_sum_all(a); }, 2.0 * n_elem));
    results.push_back(
        time_op("tensor", "weighted_square_sum", "256x1,256x256", r_mid,
                [&] { k::weighted_square_sum_all(w_col, a); }, 3.0 * n_elem));
    results.push_back(time_op("tensor", "bias_tanh", "256x256", r_mid,
                              [&] { k::bias_tanh(a, bias_row); },
                              2.0 * n_elem));
    results.push_back(
        time_op("tensor", "adam_step", "65536", r_small,
                [&] { k::adam_step_inplace(param, grad, m, v, adam_cfg); },
                14.0 * n_vec));

    // fp32 twins of the hottest sweeps — the kernels the mixed-precision
    // replay path (QPINN_PRECISION=mixed) executes through the fp32 SIMD
    // tables. Same shapes and chunking as the fp64 rows above, so the
    // row-to-row ratio is the raw width win on this machine.
    {
      namespace f32 = qpinn::kernels_f32;
      const std::size_t ne = static_cast<std::size_t>(n_elem);
      std::vector<float> fa(ne), fb(ne), fo(ne), fbias(256);
      f32::downcast(fa.data(), a.data(), ne);
      f32::downcast(fb.data(), b.data(), ne);
      f32::downcast(fbias.data(), bias_row.data(), 256);
      results.push_back(time_op(
          "tensor", "add_f32", "256x256", r_mid,
          [&] {
            f32::bin_same(qpinn::simd::kAdd, fa.data(), fb.data(), fo.data(),
                          ne);
          },
          n_elem));
      results.push_back(time_op(
          "tensor", "mul_f32", "256x256", r_mid,
          [&] {
            f32::bin_same(qpinn::simd::kMul, fa.data(), fb.data(), fo.data(),
                          ne);
          },
          n_elem));
      results.push_back(
          time_op("tensor", "bias_tanh_f32", "256x256", r_mid,
                  [&] {
                    f32::bias_tanh(fa.data(), fbias.data(), fo.data(), 256,
                                   256);
                  },
                  2.0 * n_elem));
      results.push_back(
          time_op("tensor", "matmul_f32", "256x256x256", r_big,
                  [&] { f32::matmul(fa.data(), fb.data(), fo.data(), 256, 256,
                                    256); },
                  2.0 * 256.0 * n_elem, pool_threads));
    }
  }

  // ---- parallel suite ----------------------------------------------------
  // One empty for_each_chunk round trip (all its chunks, chunk 0 on this
  // thread): the dispatch cost the policy in parallel/parallel_for.hpp
  // weighs every call's work against. A 1-thread pool would run its one
  // chunk inline, so a pool of 2 stands in for it.
  double dispatch_us = 0.0;
  {
    std::optional<qpinn::ThreadPool> pair;
    qpinn::ThreadPool& tp = qpinn::global_pool().size() >= 2
                                ? qpinn::global_pool()
                                : pair.emplace(2);
    const std::size_t chunks = tp.size();
    const Result row = time_op(
        "parallel", "dispatch_us", std::to_string(chunks) + "-chunks",
        r_small, [&] {
          tp.for_each_chunk(chunks,
                            [](std::size_t, std::size_t, std::size_t) {});
        });
    dispatch_us = row.ns_per_op / 1e3;
    results.push_back(row);
  }

  // Flop model for the 2-64-64-1 tanh MLP on the 256-row batch (one flop
  // per transcendental). Forward: matmuls at 2NKM plus the bias adds, tanh
  // sweeps, and the mean-square head. Backward: the reverse-mode matmul
  // pair per layer (the input x is a constant, so layer 1 only computes the
  // weight gradient), d tanh = (1 - t^2) * g at 4 flops/elem, and the bias
  // sum_to reductions. Adam adds 14 flops per parameter element.
  const double h_elems = 256.0 * 64.0;
  const double mlp_fwd_flops =
      2.0 * 256.0 * 2.0 * 64.0 + h_elems +   // x@W1 + b1
      h_elems +                              // tanh
      2.0 * 256.0 * 64.0 * 64.0 + h_elems +  // h@W2 + b2
      h_elems +                              // tanh
      2.0 * 256.0 * 64.0 + 256.0 +           // h@W3 + b3
      2.0 * 256.0 + 1.0;                     // square + mean
  const double mlp_bwd_flops =
      2.0 * 256.0 + 512.0 +                                // head backward
      2.0 * 64.0 * 256.0 + 2.0 * 256.0 * 64.0 + 256.0 +    // dW3, dh2, db3
      4.0 * h_elems +                                      // d tanh (layer 2)
      2.0 * 64.0 * 256.0 * 64.0 + 2.0 * 256.0 * 64.0 * 64.0 +
      h_elems +                                            // dW2, dh1, db2
      4.0 * h_elems +                                      // d tanh (layer 1)
      2.0 * 2.0 * 256.0 * 64.0 + h_elems;                  // dW1, db1
  const double mlp_grad_flops = mlp_fwd_flops + mlp_bwd_flops;
  const double n_params = 2.0 * 64.0 + 64.0 + 64.0 * 64.0 + 64.0 + 64.0 + 1.0;
  const double train_step_flops = mlp_grad_flops + 14.0 * n_params;

  // ---- autodiff suite ----------------------------------------------------
  BenchModel model(rng);
  results.push_back(time_op("autodiff", "mlp_forward", "256x2->1", r_mid,
                            [&] { model.loss(); }, mlp_fwd_flops));
  results.push_back(time_op("autodiff", "mlp_grad", "256x2->1", r_mid,
                            [&] { ad::grad(model.loss(), model.params); },
                            mlp_grad_flops));

  // Graph replay (autodiff/plan.hpp): capture the forward pass once, then
  // replay the recorded kernel schedule — no tape, no Node allocations, no
  // pool traffic (allocs_per_op and reuses_per_op must both be 0).
  namespace plan = qpinn::autodiff::plan;
  const bool plan_opt = plan::plan_opt_env_enabled();
  plan::ExecutionPlan fwd_plan;
  Tensor fwd_loss;  // declared plan output: keeps the head live under DCE
  {
    plan::CaptureScope scope(fwd_plan);
    fwd_loss = model.loss().value();
  }
  plan::PassStats fwd_pass;
  fwd_pass.thunks_before = fwd_pass.thunks_after = fwd_plan.size();
  fwd_pass.arena_bytes_before = fwd_pass.arena_bytes_after =
      fwd_plan.arena_bytes();
  if (plan_opt) fwd_pass = plan::optimize_plan(fwd_plan, {fwd_loss});
  results.push_back(time_op("autodiff", "mlp_forward_replay", "256x2->1",
                            r_mid, [&] { fwd_plan.replay(); },
                            mlp_fwd_flops));

  // ---- training-step suite ----------------------------------------------
  qpinn::optim::Adam adam(model.params, {});
  auto train_step = [&] {
    auto grads = ad::grad(model.loss(), model.params);
    std::vector<Tensor> g;
    g.reserve(grads.size());
    for (auto& gv : grads) g.push_back(gv.value());
    adam.step(g);
  };
  results.push_back(time_op("training", "train_step", "mlp-2-64-64-1", r_big,
                            train_step, train_step_flops));

  // Replayed training step, mirroring the Trainer integration: the captured
  // plan recomputes loss + gradients into pinned buffers, Adam stays eager
  // (its step count and LR change every iteration).
  plan::ExecutionPlan step_plan;
  std::vector<Tensor> plan_grads;
  {
    plan::CaptureScope scope(step_plan);
    auto grads = ad::grad(model.loss(), model.params);
    plan_grads.reserve(grads.size());
    for (auto& gv : grads) plan_grads.push_back(gv.value());
  }
  plan::PassStats step_pass;
  step_pass.thunks_before = step_pass.thunks_after = step_plan.size();
  step_pass.arena_bytes_before = step_pass.arena_bytes_after =
      step_plan.arena_bytes();
  if (plan_opt) step_pass = plan::optimize_plan(step_plan, plan_grads);
  auto train_step_replay = [&] {
    step_plan.replay();
    adam.step(plan_grads);
  };
  results.push_back(time_op("training", "train_step_replay", "mlp-2-64-64-1",
                            r_big, train_step_replay, train_step_flops));

  // Demoted twin of the replay row: an identically captured schedule run
  // through autodiff::demote_plan, so the interior sweeps execute on the
  // fp32 tables while Adam stays eager fp64 on the master weights (the
  // downcast-on-publish thunks re-run inside every replay). The ratio to
  // train_step_replay is the mixed-precision win the trainer sees.
  plan::ExecutionPlan mixed_plan;
  std::vector<Tensor> mixed_grads;
  {
    plan::CaptureScope scope(mixed_plan);
    auto grads = ad::grad(model.loss(), model.params);
    mixed_grads.reserve(grads.size());
    for (auto& gv : grads) mixed_grads.push_back(gv.value());
  }
  if (plan_opt) plan::optimize_plan(mixed_plan, mixed_grads);
  const ad::DemoteStats demote_stats =
      ad::demote_plan(mixed_plan, mixed_grads);
  auto train_step_mixed = [&] {
    mixed_plan.replay();
    adam.step(mixed_grads);
  };
  results.push_back(time_op("training", "train_step_mixed", "mlp-2-64-64-1",
                            r_big, train_step_mixed, train_step_flops));

  // ---- dist suite --------------------------------------------------------
  // Loopback communicators (dist/communicator.hpp): socketpair ranks on
  // background threads, the same framing/retry/CRC code paths the
  // multi-process transport runs minus the listener. The collectives keep
  // every rank in lockstep with the timed root, so the worker threads
  // issue exactly the 1 + kPasses*reps calls time_op's body makes. The
  // allocs/reuses columns aggregate every rank — the pool is global —
  // and pool hits race across rank threads, so they are
  // interleaving-dependent here (bench_compare exempts this suite from
  // its exact-alloc gate).
  {
    namespace dist = qpinn::dist;
    dist::TransportOptions dopts;
    // On a loaded single-core runner a preempted rank is slow, not lost;
    // the fault paths are not what this suite measures.
    dopts.message_timeout_ms = 10000;
    dopts.heartbeat_timeout_ms = 60000;

    // The Trainer's reduction buffer: [loss, aux, stop, grads...].
    const std::int64_t n_doubles = static_cast<std::int64_t>(n_params) + 3;
    for (const std::int64_t world : {2, 4}) {
      auto comms = dist::Communicator::loopback(world, dopts);
      const int calls = 1 + kPasses * r_mid;
      std::vector<std::thread> workers;
      for (std::int64_t r = 1; r < world; ++r) {
        workers.emplace_back([&comms, r, n_doubles, calls] {
          std::vector<double> buf(static_cast<std::size_t>(n_doubles));
          for (int c = 0; c < calls; ++c) {
            std::fill(buf.begin(), buf.end(), static_cast<double>(r));
            comms[static_cast<std::size_t>(r)]->allreduce(buf, c);
          }
        });
      }
      std::vector<double> buf(static_cast<std::size_t>(n_doubles));
      std::int64_t epoch = 0;
      const std::string shape = std::to_string(world) + "ranks-" +
                                std::to_string(n_doubles) + "dbl";
      // Flop model: the root's rank-ordered gather sum, (world-1) adds
      // per element; the broadcast moves bytes, not flops.
      results.push_back(time_op(
          "dist", "allreduce", shape, r_mid,
          [&] {
            std::fill(buf.begin(), buf.end(), 0.0);
            comms[0]->allreduce(buf, epoch++);
          },
          static_cast<double>((world - 1) * n_doubles)));
      for (auto& w : workers) w.join();
    }

    // N-rank data-parallel training step — the schedule Trainer::fit runs
    // in dist mode: each rank takes the gradient of its 256/world-row
    // shard, the flat buffer is all-reduced in rank order, and a per-rank
    // Adam applies the averaged sum. gflops counts the aggregate useful
    // math (the full-batch step) so the column stays comparable with the
    // single-process train_step row; the gap to that row is the
    // communication + redundant-optimizer overhead of going distributed.
    struct RankState {
      BenchModel model;
      qpinn::optim::Adam adam;
      std::vector<Tensor> summed;
      std::vector<double> buf;
      std::int64_t epoch = 0;
      RankState(Rng& rank_rng, std::int64_t rows, std::int64_t n)
          : model(rank_rng, rows), adam(model.params, {}),
            buf(static_cast<std::size_t>(n)) {
        summed.reserve(model.params.size());
        for (const ad::Variable& p : model.params) {
          summed.push_back(Tensor::zeros(p.shape()));
        }
      }
    };
    for (const std::int64_t world : {2, 4}) {
      auto comms = dist::Communicator::loopback(world, dopts);
      std::vector<std::unique_ptr<RankState>> ranks;
      for (std::int64_t r = 0; r < world; ++r) {
        Rng rank_rng(static_cast<std::uint64_t>(100 + r));
        ranks.push_back(std::make_unique<RankState>(rank_rng, 256 / world,
                                                    n_doubles));
      }
      auto rank_step = [&comms, &ranks, world](std::int64_t r) {
        RankState& st = *ranks[static_cast<std::size_t>(r)];
        auto grads = ad::grad(st.model.loss(), st.model.params);
        st.buf[0] = st.buf[1] = st.buf[2] = 0.0;  // loss/aux/stop header
        std::size_t off = 3;
        for (const ad::Variable& gv : grads) {
          const Tensor& t = gv.value();
          std::copy(t.data(), t.data() + t.numel(),
                    st.buf.begin() + static_cast<std::ptrdiff_t>(off));
          off += static_cast<std::size_t>(t.numel());
        }
        comms[static_cast<std::size_t>(r)]->allreduce(st.buf, st.epoch++);
        const double inv = 1.0 / static_cast<double>(world);
        off = 3;
        for (Tensor& t : st.summed) {
          double* dst = t.data();
          for (std::int64_t i = 0; i < t.numel(); ++i) {
            dst[static_cast<std::size_t>(i)] =
                st.buf[off + static_cast<std::size_t>(i)] * inv;
          }
          off += static_cast<std::size_t>(t.numel());
        }
        st.adam.step(st.summed);
      };
      const int calls = 1 + kPasses * r_big;
      std::vector<std::thread> workers;
      for (std::int64_t r = 1; r < world; ++r) {
        workers.emplace_back([&rank_step, r, calls] {
          // Placed once, as Trainer::step places a dist rank's thread.
          qpinn::place_thread_once(static_cast<std::size_t>(r));
          for (int c = 0; c < calls; ++c) rank_step(r);
        });
      }
      const std::string shape =
          "mlp-2-64-64-1x" + std::to_string(world) + "ranks";
      results.push_back(time_op("dist", "train_step", shape, r_big,
                                [&] { rank_step(0); }, train_step_flops));
      for (auto& w : workers) w.join();
    }
  }

  // ---- serve suite -------------------------------------------------------
  // Surrogate serving path (src/serve/): concurrent clients issue point
  // queries, the queue coalesces them into batched forward-only replays.
  // serve_qps carries the mean ns/query at full load (1e9 / qps, so the
  // ratio gate points the usual way); serve_p50_us / serve_p99_us carry
  // the end-to-end per-query latency percentiles in ns, queue wait and
  // deadline flush included. allocs/query is exact and must stay 0: the
  // plan replays into pinned buffers and worker scratch is reused, so a
  // steady-state query touches the pool not at all.
  //
  // The QPINN_SERVE_WORKERS sweep (1/2/4 at the same fixed client count)
  // locates where the single replay mutex saturates: every worker replays
  // against the same CompiledModel, so extra workers only help while flush
  // scheduling (ring drain, wakeups) — not the serialized replay — is the
  // bottleneck. The summary fields track the 1-worker configuration; the
  // sweep rows carry the per-worker-count qps/p50/p99.
  double serve_qps = 0.0;
  double serve_p50_us = 0.0;
  double serve_p99_us = 0.0;
  double serve_allocs_per_query = 0.0;
  {
    namespace serve = qpinn::serve;
    qpinn::core::FieldModelConfig mconfig;
    mconfig.hidden = {64, 64};
    mconfig.fourier = qpinn::nn::FourierConfig{16, 1.0};
    mconfig.normalization =
        qpinn::core::InputNormalization::for_domain(-1.0, 1.0, 0.0, 1.0);
    mconfig.seed = 7;
    // Each client blocks on its own query, so the number of clients bounds
    // the outstanding queries: batch_rows must not exceed it or every
    // flush is a deadline-expired partial batch and the row measures the
    // flush timer, not the serving path.
    constexpr int kServeClients = 8;
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->publish(serve::CompiledModel::compile(
        qpinn::core::make_field_model(mconfig), /*batch_rows=*/8));
    const std::int64_t per_client = quick ? 2000 : 20000;
    for (const std::size_t n_workers : {1, 2, 4}) {
      serve::QueryQueueConfig qconfig;
      qconfig.flush_us = 50;
      qconfig.workers = n_workers;
      serve::QueryQueue queue(registry, qconfig);
      // Warm-up primes the pinned replay buffers and the worker's scratch.
      for (int i = 0; i < 256; ++i) {
        (void)queue.query(0.005 * i - 0.64, 0.5);
      }

      std::vector<std::vector<double>> latencies_ns(kServeClients);
      const auto sp0 = pool.stats();
      Stopwatch wall;
      std::vector<std::thread> clients;
      clients.reserve(kServeClients);
      for (int c = 0; c < kServeClients; ++c) {
        clients.emplace_back([&queue, &latencies_ns, per_client, c] {
          std::vector<double>& mine =
              latencies_ns[static_cast<std::size_t>(c)];
          mine.reserve(static_cast<std::size_t>(per_client));
          for (std::int64_t q = 0; q < per_client; ++q) {
            const double x =
                -1.0 + 2.0 * static_cast<double>(q % 997) / 997.0;
            const double t =
                static_cast<double>((q * (c + 1)) % 101) / 101.0;
            Stopwatch sw;
            (void)queue.query(x, t);
            mine.push_back(sw.seconds() * 1e9);
          }
        });
      }
      for (auto& client : clients) client.join();
      const double wall_s = wall.seconds();
      const auto sp1 = pool.stats();
      queue.shutdown();

      const double total_queries =
          static_cast<double>(kServeClients) *
          static_cast<double>(per_client);
      const double qps = total_queries / wall_s;
      const double allocs_per_query =
          static_cast<double>(sp1.heap_allocations - sp0.heap_allocations) /
          total_queries;
      const double reuses_per_query =
          static_cast<double>(sp1.pool_reuses - sp0.pool_reuses) /
          total_queries;
      std::vector<double> all_ns;
      all_ns.reserve(static_cast<std::size_t>(total_queries));
      for (const auto& mine : latencies_ns) {
        all_ns.insert(all_ns.end(), mine.begin(), mine.end());
      }
      std::sort(all_ns.begin(), all_ns.end());
      const double p50_ns = all_ns[all_ns.size() / 2];
      const double p99_ns = all_ns[static_cast<std::size_t>(
          0.99 * static_cast<double>(all_ns.size() - 1))];
      if (n_workers == 1) {
        serve_qps = qps;
        serve_allocs_per_query = allocs_per_query;
        serve_p50_us = p50_ns / 1e3;
        serve_p99_us = p99_ns / 1e3;
      }

      // The 1-worker shape keeps its pre-sweep name so historical baselines
      // keep comparing against the same row.
      const std::string serve_shape =
          n_workers == 1 ? "batch8x8clients"
                         : "batch8x8clients-" +
                               std::to_string(n_workers) + "w";
      Result row;
      row.suite = "serve";
      row.shape = serve_shape;
      row.allocs_per_op = allocs_per_query;
      row.reuses_per_op = reuses_per_query;
      row.op = "serve_qps";
      row.ns_per_op = 1e9 / qps;
      results.push_back(row);
      row.op = "serve_p50_us";
      row.ns_per_op = p50_ns;
      results.push_back(row);
      row.op = "serve_p99_us";
      row.ns_per_op = p99_ns;
      results.push_back(row);
    }
  }

  // ---- optimizer suite: wall-clock to target accuracy --------------------
  // The two-stage recipe of classical PINN practice — Adam epochs, then an
  // L-BFGS refinement on the same fixed collocation objective — timed as
  // wall nanoseconds until the relative L2 against the B1 free-packet
  // analytic reference first drops below the target. Collocation is fixed
  // (resample_every = 0) so the L-BFGS stage minimizes a deterministic
  // objective. The same trainer also supplies the per-plan optimizer-pass
  // statistics for a real captured TDSE training plan (the acceptance
  // numbers: nonzero thunk and arena reduction).
  plan::PassStats tdse_pass;
  const double target_l2 = 0.5;
  double time_to_target_ns = 0.0;
  double achieved_l2 = std::numeric_limits<double>::infinity();
  bool target_reached = false;
  {
    namespace core = qpinn::core;
    auto problem = core::make_free_packet_problem();
    core::TrainConfig tc = core::default_train_config(/*epochs=*/1,
                                                      /*seed=*/7);
    tc.resample_every = 0;
    tc.sampling.n_interior_x = 12;
    tc.sampling.n_interior_t = 12;
    tc.sampling.n_initial = 24;
    tc.sampling.n_boundary = 12;
    tc.metric_nx = 32;
    tc.metric_nt = 16;
    tc.graph = core::GraphMode::kOn;
    tc.second_stage.enabled = true;
    tc.second_stage.lbfgs.max_iterations = 10;
    core::FieldModelConfig mc = core::default_model_config(*problem,
                                                           /*seed=*/7);
    mc.hidden = {16, 16};
    mc.fourier = qpinn::nn::FourierConfig{8, 1.0};
    mc.hard_ic = core::HardIc{problem->config().initial,
                              problem->domain().t_lo};
    auto model = core::make_field_model(mc);
    core::Trainer trainer(problem, model, tc);

    const std::int64_t adam_epochs = quick ? 200 : 600;
    const std::int64_t eval_every = 25;
    const qpinn::bench::CoresUsed meter;
    Stopwatch clock;
    for (std::int64_t e = 0; e < adam_epochs && !target_reached; ++e) {
      trainer.step(e);
      if ((e + 1) % eval_every == 0) {
        achieved_l2 = trainer.evaluate_l2();
        if (achieved_l2 <= target_l2) {
          target_reached = true;
          time_to_target_ns = clock.seconds() * 1e9;
        }
      }
    }
    // Per-plan pass statistics, captured on the trainer's first step
    // (all-zero when QPINN_PLAN_OPT is off).
    const auto shard_plans = trainer.captured_plans();
    if (!shard_plans.empty()) tdse_pass = shard_plans[0]->pass_stats();

    if (!target_reached) {
      // L-BFGS refinement rounds through the Trainer's first-class second
      // stage (SecondStageConfig, configured above): the exact objective
      // Trainer::fit refines, interleaved here with metric evaluation so
      // the clock stops at the first round that crosses the target.
      const std::int64_t rounds = quick ? 6 : 20;
      for (std::int64_t round = 0; round < rounds && !target_reached;
           ++round) {
        trainer.run_second_stage(adam_epochs);
        achieved_l2 = trainer.evaluate_l2();
        if (achieved_l2 <= target_l2) {
          target_reached = true;
          time_to_target_ns = clock.seconds() * 1e9;
        }
      }
    }
    // Budget exhausted without reaching the target: report the full spend
    // (the summary's time_to_target_l2_reached flag disambiguates).
    if (!target_reached) time_to_target_ns = clock.seconds() * 1e9;

    Result row;
    row.suite = "training";
    row.op = "time_to_target_l2";
    row.shape = "free-packet";
    row.ns_per_op = time_to_target_ns;
    row.cores = meter.cores();
    results.push_back(row);
  }

  // SIMD win: re-time the key ops with the dispatch forced to the scalar
  // table, on the same buffers and repetition counts. The ratio is the
  // vectorization speedup on THIS machine (the scalar rows are not written
  // to the report's results array, only the ratios to the summary).
  namespace simd = qpinn::simd;
  const simd::Isa active_isa = simd::active_isa();
  auto ns_of = [&](const std::string& op, const std::string& shape) {
    for (const Result& r : results) {
      if (r.op == op && r.shape == shape) return r.ns_per_op;
    }
    return 0.0;
  };
  double speedup_add = 1.0;
  double speedup_mul = 1.0;
  double speedup_matmul = 1.0;
  double speedup_train = 1.0;
  if (active_isa != simd::Isa::kScalar &&
      simd::force_isa(simd::Isa::kScalar)) {
    simd::force_isa(active_isa);
    Rng rng2(7);
    const Tensor sa = Tensor::rand({256, 256}, rng2, -1.0, 1.0);
    const Tensor sb = Tensor::rand({256, 256}, rng2, -1.0, 1.0);
    // The elementwise comparison runs in the DRAM-bound regime (above the
    // non-temporal store threshold): below LLC size the 3-stream sweep is
    // cache-bandwidth-bound and any vectorization parity-matches the
    // auto-vectorized scalar loop, so there is nothing to measure there.
    const std::int64_t big_n =
        static_cast<std::int64_t>(simd::detail::kStreamMinElems) * 2;
    const Tensor ba = Tensor::rand({big_n}, rng2, -1.0, 1.0);
    const Tensor bb = Tensor::rand({big_n}, rng2, -1.0, 1.0);
    const int r_huge = quick ? 5 : 20;
    // Each pair is timed back-to-back under both dispatch tables: the
    // vector rows in `results` were measured much earlier in the run, and
    // clock/thermal drift over a full report otherwise biases the ratio.
    const auto paired = [&](int reps, auto body) {
      simd::force_isa(active_isa);
      const Result vec = time_op("scalar", "vector-side", "-", reps, body);
      simd::force_isa(simd::Isa::kScalar);
      const Result sca = time_op("scalar", "scalar-side", "-", reps, body);
      simd::force_isa(active_isa);
      return (sca.ns_per_op > 0.0 && vec.ns_per_op > 0.0)
                 ? sca.ns_per_op / vec.ns_per_op
                 : 1.0;
    };
    speedup_add = paired(r_huge, [&] { k::add(ba, bb); });
    speedup_mul = paired(r_huge, [&] { k::mul(ba, bb); });
    speedup_matmul = paired(r_big, [&] { k::matmul(sa, sb); });
    speedup_train = paired(r_big, train_step);
  }

  // Allocation win: identical steps, pool on vs off, counted by the pool
  // itself. Exact and machine-independent (same tape -> same tensor count).
  const int alloc_reps = quick ? 10 : 50;
  const bool was_enabled = pool.enabled();
  pool.set_enabled(true);
  train_step();  // steady state: free lists primed
  auto s0 = pool.stats();
  for (int r = 0; r < alloc_reps; ++r) train_step();
  auto s1 = pool.stats();
  const double allocs_on =
      static_cast<double>(s1.heap_allocations - s0.heap_allocations) /
      alloc_reps;
  pool.set_enabled(false);
  train_step();
  s0 = pool.stats();
  for (int r = 0; r < alloc_reps; ++r) train_step();
  s1 = pool.stats();
  const double allocs_off =
      static_cast<double>(s1.heap_allocations - s0.heap_allocations) /
      alloc_reps;
  pool.set_enabled(was_enabled);
  const double reduction = allocs_off / std::max(allocs_on, 1.0);

  // Eager-vs-replay gap on the training step (>1 means replay is faster;
  // this is the overhead the graph executor removes from the eager tape).
  const double replay_ns = ns_of("train_step_replay", "mlp-2-64-64-1");
  const double graph_overhead =
      replay_ns > 0.0 ? ns_of("train_step", "mlp-2-64-64-1") / replay_ns : 1.0;
  const plan::PlanStats pstats = plan::plan_stats();

  // Capture memory: the pool high-water of one B1 fp64 training step,
  // captured against eager, at one thread where the gauges are exact. It
  // runs after the plan counters above are read, so they keep covering
  // the suites' plans only.
  // Two-phase capture frees the step's intermediates as eager does and
  // binds the arena afterwards, so the capture step peaks at the eager
  // step's high-water plus the host-built constants the plan keeps.
  std::uint64_t capture_hw = 0, eager_hw = 0, capture_constants = 0;
  {
    namespace core = qpinn::core;
    const std::size_t saved_threads = qpinn::global_pool().size();
    const ad::Precision saved_precision = ad::precision_mode();
    qpinn::set_global_threads(1);
    ad::set_precision_mode(ad::Precision::kFp64);
    pool.set_enabled(true);
    auto problem = core::make_free_packet_problem();
    core::TrainConfig tc = core::default_train_config(/*epochs=*/1,
                                                      /*seed=*/7);
    tc.resample_every = 0;
    tc.threads = 1;
    const auto first_step_high_water = [&](core::GraphMode mode) {
      tc.graph = mode;
      core::Trainer trainer(problem, core::make_model_for(*problem, 3), tc);
      pool.reset_high_water();
      const std::uint64_t live0 = pool.stats().live_bytes;
      trainer.step(0);
      for (const plan::ExecutionPlan* p : trainer.captured_plans()) {
        capture_constants += p->constant_bytes();
      }
      return pool.stats().live_high_water_bytes - live0;
    };
    eager_hw = first_step_high_water(core::GraphMode::kOff);
    capture_hw = first_step_high_water(core::GraphMode::kOn);
    pool.set_enabled(was_enabled);
    ad::set_precision_mode(saved_precision);
    qpinn::set_global_threads(saved_threads);
  }
  const auto mib = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };

  // Mixed-precision win on the replayed training step (>1 means the
  // demoted fp32 schedule is faster than the fp64 one; bench_compare
  // gates this at >= 1.3).
  const double mixed_ns = ns_of("train_step_mixed", "mlp-2-64-64-1");
  const double mixed_speedup =
      mixed_ns > 0.0 ? replay_ns / mixed_ns : 1.0;

  // Cost of going distributed on a 2-rank loopback world relative to the
  // same step single-process (>1 means dist is slower; the gap is the
  // transport round-trip plus the per-rank optimizer duplication).
  const double step_ns = ns_of("train_step", "mlp-2-64-64-1");
  const double dist2_ns = ns_of("train_step", "mlp-2-64-64-1x2ranks");
  const double dist_overhead =
      step_ns > 0.0 ? dist2_ns / step_ns : 1.0;

  // ---- report ------------------------------------------------------------
  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": 1,\n";
  json << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  json << "  \"threads\": " << qpinn::global_pool().size() << ",\n";
  json << "  \"results\": [\n";
  int serialized_rows = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json << "    {\"suite\": \"" << r.suite << "\", \"op\": \"" << r.op
         << "\", \"shape\": \"" << r.shape << "\", \"ns_per_op\": "
         << fmt(r.ns_per_op) << ", \"allocs_per_op\": " << fmt(r.allocs_per_op)
         << ", \"reuses_per_op\": " << fmt(r.reuses_per_op)
         << ", \"gflops\": " << fmt(r.gflops)
         << ", \"threads\": " << r.threads << ", \"cores\": " << fmt(r.cores)
         << ", \"host_serialized\": "
         << (r.host_serialized ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
    serialized_rows += r.host_serialized ? 1 : 0;
  }
  json << "  ],\n";
  json << "  \"summary\": {\n";
  json << "    \"train_step_allocs_pool_on\": " << fmt(allocs_on) << ",\n";
  json << "    \"train_step_allocs_pool_off\": " << fmt(allocs_off) << ",\n";
  json << "    \"alloc_reduction_x\": " << fmt(reduction) << ",\n";
  json << "    \"simd_isa\": \"" << simd::isa_name(active_isa) << "\",\n";
  json << "    \"speedup_add_vs_scalar\": " << fmt(speedup_add) << ",\n";
  json << "    \"speedup_mul_vs_scalar\": " << fmt(speedup_mul) << ",\n";
  json << "    \"speedup_matmul_vs_scalar\": " << fmt(speedup_matmul)
       << ",\n";
  json << "    \"speedup_train_step_vs_scalar\": " << fmt(speedup_train)
       << ",\n";
  json << "    \"speedup_sincos_vs_libm\": " << fmt(speedup_sincos) << ",\n";
  json << "    \"graph_overhead_x\": " << fmt(graph_overhead) << ",\n";
  json << "    \"mixed_speedup_x\": " << fmt(mixed_speedup) << ",\n";
  json << "    \"dispatch_us\": " << fmt(dispatch_us) << ",\n";
  json << "    \"host_serialized_rows\": " << serialized_rows << ",\n";
  json << "    \"dispatch_policy_us\": " << fmt(qpinn::kDispatchNs / 1e3)
       << ",\n";
  json << "    \"mixed_demoted_thunks\": " << demote_stats.demoted << ",\n";
  json << "    \"mixed_kept_fp64_thunks\": " << demote_stats.kept_fp64
       << ",\n";
  json << "    \"mixed_downcasts\": " << demote_stats.downcasts << ",\n";
  json << "    \"mixed_upcasts\": " << demote_stats.upcasts << ",\n";
  json << "    \"mixed_shadow_bytes\": " << demote_stats.shadow_bytes
       << ",\n";
  json << "    \"dist_overhead_2rank_x\": " << fmt(dist_overhead) << ",\n";
  json << "    \"serve_qps\": " << fmt(serve_qps) << ",\n";
  json << "    \"serve_p50_us\": " << fmt(serve_p50_us) << ",\n";
  json << "    \"serve_p99_us\": " << fmt(serve_p99_us) << ",\n";
  json << "    \"serve_allocs_per_query\": " << fmt(serve_allocs_per_query)
       << ",\n";
  json << "    \"plans_captured\": " << pstats.plans_captured << ",\n";
  json << "    \"plan_replays\": " << pstats.replays << ",\n";
  json << "    \"plan_fallbacks\": " << pstats.fallbacks << ",\n";
  json << "    \"plan_opt_enabled\": " << (plan_opt ? "true" : "false")
       << ",\n";
  json << "    \"plans_optimized\": " << pstats.plans_optimized << ",\n";
  json << "    \"plan_thunks_eliminated\": " << pstats.thunks_eliminated
       << ",\n";
  json << "    \"plan_arena_bytes_saved\": " << pstats.arena_bytes_saved
       << ",\n";
  json << "    \"fwd_plan_thunks_before\": " << fwd_pass.thunks_before
       << ",\n";
  json << "    \"fwd_plan_thunks_after\": " << fwd_pass.thunks_after
       << ",\n";
  json << "    \"fwd_plan_arena_bytes_before\": "
       << fwd_pass.arena_bytes_before << ",\n";
  json << "    \"fwd_plan_arena_bytes_after\": "
       << fwd_pass.arena_bytes_after << ",\n";
  json << "    \"step_plan_thunks_before\": " << step_pass.thunks_before
       << ",\n";
  json << "    \"step_plan_thunks_after\": " << step_pass.thunks_after
       << ",\n";
  json << "    \"step_plan_arena_bytes_before\": "
       << step_pass.arena_bytes_before << ",\n";
  json << "    \"step_plan_arena_bytes_after\": "
       << step_pass.arena_bytes_after << ",\n";
  json << "    \"tdse_plan_thunks_before\": " << tdse_pass.thunks_before
       << ",\n";
  json << "    \"tdse_plan_thunks_after\": " << tdse_pass.thunks_after
       << ",\n";
  json << "    \"tdse_plan_arena_bytes_before\": "
       << tdse_pass.arena_bytes_before << ",\n";
  json << "    \"tdse_plan_arena_bytes_after\": "
       << tdse_pass.arena_bytes_after << ",\n";
  json << "    \"capture_high_water_mb\": " << fmt(mib(capture_hw)) << ",\n";
  json << "    \"eager_high_water_mb\": " << fmt(mib(eager_hw)) << ",\n";
  json << "    \"capture_constant_bytes\": " << capture_constants << ",\n";
  json << "    \"time_to_target_l2_ns\": " << fmt(time_to_target_ns)
       << ",\n";
  json << "    \"time_to_target_l2_goal\": " << fmt(target_l2) << ",\n";
  json << "    \"time_to_target_l2_achieved\": " << fmt(achieved_l2)
       << ",\n";
  json << "    \"time_to_target_l2_reached\": "
       << (target_reached ? "true" : "false") << "\n";
  json << "  }\n";
  json << "}\n";

  const std::string out_path = cli.get_string("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_report: cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  out.close();

  std::cout << json.str();
  std::cout << "wrote " << out_path << "\n";
  if (reduction < 5.0) {
    std::cout << "WARNING: alloc_reduction_x " << fmt(reduction)
              << " is below the 5x budget (see ISSUE 3 acceptance)\n";
  }
  // The elementwise add/mul speedups are gated at >= 0.95: the "scalar"
  // table's plain loops auto-vectorize under -O3, so on a cache-resident
  // 3-stream sweep explicit SIMD can only parity-match them. The gated
  // measurement therefore runs DRAM-bound, where the vector path's
  // non-temporal stores cut memory traffic and win outright (see
  // DESIGN.md); a value below 0.95 means the streaming path regressed.
  if (speedup_add < 0.95 || speedup_mul < 0.95) {
    std::cout << "WARNING: elementwise SIMD speedup below the 0.95 parity "
                 "gate (add "
              << fmt(speedup_add) << ", mul " << fmt(speedup_mul) << ")\n";
  }
  if (mixed_speedup < 1.3) {
    std::cout << "WARNING: mixed_speedup_x " << fmt(mixed_speedup)
              << " is below the 1.3x gate (train_step_replay vs "
                 "train_step_mixed)\n";
  }
  if (serialized_rows > 0) {
    std::cout << "WARNING: " << serialized_rows
              << " thread row(s) stayed host-serialized after "
              << qpinn::bench::kMaxRetimes
              << " re-times (cores used below "
              << qpinn::bench::kSerializedShare
              << " x min(threads, nproc)); their times measure the scheduler\n";
  }
  if (serve_allocs_per_query > 0.0) {
    std::cout << "WARNING: serving did " << fmt(serve_allocs_per_query)
              << " pool allocations per query; steady state must be 0\n";
  }
  if (capture_hw > eager_hw + capture_constants) {
    std::cout << "WARNING: the B1 fp64 capture step peaked at "
              << fmt(mib(capture_hw)) << " MiB of pool buffers, above the "
              << "eager step's " << fmt(mib(eager_hw)) << " MiB plus "
              << capture_constants << " bytes of plan constants\n";
  }
  if (plan_opt &&
      (tdse_pass.thunks_after >= tdse_pass.thunks_before ||
       tdse_pass.arena_bytes_after >= tdse_pass.arena_bytes_before)) {
    std::cout << "WARNING: plan optimizer made no thunk or arena reduction "
                 "on the TDSE training plan (thunks "
              << tdse_pass.thunks_before << " -> " << tdse_pass.thunks_after
              << ", arena " << tdse_pass.arena_bytes_before << " -> "
              << tdse_pass.arena_bytes_after << " bytes)\n";
  }
  return 0;
}
