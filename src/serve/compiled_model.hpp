// An immutable, replay-only surrogate: the forward pass of a trained
// FieldModel captured once as a pure ExecutionPlan at a fixed batch shape.
//
// Compilation runs the ordinary eager forward under NoGradGuard with a
// forward-only CaptureScope armed (autodiff/plan.hpp), so the recorded
// schedule contains value-producing kernels only — no tape, no optimizer,
// no gradient buffers. Every query batch afterwards is one replay against
// buffers bound at compile time: zero Node allocations, zero pool
// traffic, zero refcount churn.
//
// Partial batches ride the same plan. All forward ops are row-independent
// in *value* (matmul, bias/activation sweeps, column slices), so writing
// n < batch rows into the pinned input and reading the first n output rows
// after a full replay yields, per row, exactly what an eager forward at
// the captured batch shape would: bit-identical to rows [0, n) of an eager
// forward over a padded full batch. It is NOT bitwise the same as an
// n-row eager forward — the matmul row-tile fringe uses an unfused kernel
// path, so which rows get fused FMA arithmetic depends on the total row
// count; the difference is confined to the last ulp. The stale tail rows
// compute garbage that is never read.
//
// Replay lanes: a plan replays against buffers bound at compile time, so
// one plan admits one replay at a time. Compiling a single plan would
// serialize every QPINN_SERVE_WORKERS thread on one mutex — the workers
// would scale queueing, not throughput. Instead compile() captures `lanes`
// independent plans (same weights, each pinning its own input/output
// arena) and evaluate_into() picks a lane by atomic round-robin, so up to
// `lanes` replays proceed concurrently. Lanes share the immutable weight
// tensors; only the per-lane activation arenas are duplicated.
//
// A CompiledModel is shared immutably (shared_ptr<const CompiledModel>,
// published via ModelRegistry); the pinned per-lane buffers are the only
// mutable state and each lane's mutex serializes replays on that lane, so
// concurrent callers are safe and in-flight evaluations survive a registry
// hot-swap (the shared_ptr keeps the retired model alive until its last
// batch finishes).
//
// Under QPINN_PRECISION=mixed each lane's forward plan is demoted to fp32
// compute (autodiff/precision.hpp) at compile time: queries read and write
// fp64 at the boundary while the interior sweeps run through the fp32
// SIMD tables. fp64 mode keeps the bit-identity contract above; mixed is
// tolerance-gated like training replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "autodiff/plan.hpp"
#include "core/field_model.hpp"
#include "tensor/tensor.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace qpinn::serve {

/// Provenance of the weights a CompiledModel was captured from.
struct ModelInfo {
  std::int64_t epoch = -1;  ///< checkpoint epoch (-1: not from a checkpoint)
  double loss = std::numeric_limits<double>::infinity();
};

class CompiledModel {
 public:
  /// Captures forward-only plans for `model` at a fixed batch of
  /// `batch_rows` (x, t) rows. The model's parameters are pinned by the
  /// plans — mutating them afterwards (e.g. continuing training on the
  /// same instance) would corrupt serving, so compile from a dedicated
  /// model instance (the promoter loads checkpoints into fresh models).
  /// `lanes` is the number of independent replay lanes; 0 (the default)
  /// reads QPINN_SERVE_WORKERS so the lane count matches the worker pool.
  static std::shared_ptr<const CompiledModel> compile(
      std::shared_ptr<core::FieldModel> model, std::int64_t batch_rows,
      ModelInfo info = {}, std::size_t lanes = 0);

  std::int64_t batch_rows() const { return batch_rows_; }
  const ModelInfo& info() const { return info_; }
  /// Number of independent replay lanes (concurrent replay capacity).
  std::size_t lanes() const { return lanes_.size(); }
  /// Recorded kernel count of one forward plan (observability; every lane
  /// records the identical schedule).
  std::size_t plan_size() const { return lanes_.front()->plan.size(); }
  /// Pinned arena footprint across all lanes in bytes (observability).
  std::size_t arena_bytes() const;
  /// Optimizer-pass statistics for one forward plan (all zero when
  /// QPINN_PLAN_OPT is off; identical across lanes).
  const autodiff::plan::PassStats& pass_stats() const {
    return lanes_.front()->plan.pass_stats();
  }

  /// Evaluates `rows` queries: xy holds rows*2 doubles (x, t pairs), uv
  /// receives rows*2 doubles (u, v pairs). Chunks of batch_rows() replay
  /// a round-robin-selected lane's plan; a trailing partial chunk replays
  /// the same plan with only the live rows copied in and out.
  /// Thread-safe; zero allocations; up to lanes() calls replay
  /// concurrently.
  void evaluate_into(const double* xy, std::int64_t rows, double* uv) const;

  /// Convenience wrapper allocating the (rows, 2) output tensor.
  Tensor evaluate(const Tensor& xy) const;

 private:
  /// One independent replay context: a forward plan plus the input/output
  /// buffers it keeps bound. The mutex serializes replays on this
  /// lane only.
  struct Lane {
    mutable Mutex mu;
    Tensor input QPINN_GUARDED_BY(mu);
    Tensor output QPINN_GUARDED_BY(mu);
    autodiff::plan::ExecutionPlan plan;
  };

  CompiledModel(std::shared_ptr<core::FieldModel> model,
                std::int64_t batch_rows, ModelInfo info, std::size_t lanes);

  std::shared_ptr<core::FieldModel> model_;  ///< pins the captured params
  std::int64_t batch_rows_ = 0;
  ModelInfo info_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  mutable std::atomic<std::size_t> next_lane_{0};
};

}  // namespace qpinn::serve
