#include "serve/compiled_model.hpp"

#include <algorithm>
#include <utility>

#include "autodiff/ops.hpp"
#include "autodiff/precision.hpp"
#include "autodiff/variable.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn::serve {

CompiledModel::CompiledModel(std::shared_ptr<core::FieldModel> model,
                             std::int64_t batch_rows, ModelInfo info,
                             std::size_t lanes)
    : model_(std::move(model)), batch_rows_(batch_rows), info_(info) {
  QPINN_CHECK(model_ != nullptr, "CompiledModel: model must not be null");
  QPINN_CHECK(batch_rows_ > 0, "CompiledModel: batch_rows must be positive");
  QPINN_CHECK(lanes > 0, "CompiledModel: lanes must be >= 1");
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    auto lane = std::make_unique<Lane>();
    // Nobody else can reach the lane yet; the lock exists to satisfy the
    // thread-safety analysis on the guarded buffer writes below.
    MutexLock lane_lock(lane->mu);
    lane->input = Tensor::zeros({batch_rows_, 2});
    {
      // The eager forward below IS the capture: NoGradGuard keeps every op
      // a constant (no tape), the forward-only scope records each kernel
      // thunk, and a stray gradient-accumulation record throws instead of
      // poisoning the plan. Each lane captures its own plan so its
      // intermediate arena and output buffer are private to the lane;
      // the weight tensors are shared (they are plan inputs, not arena).
      autodiff::NoGradGuard no_grad;
      autodiff::plan::CaptureScope scope(
          lane->plan, autodiff::plan::CaptureKind::kForwardOnly);
      const autodiff::Variable out =
          model_->forward(autodiff::Variable::constant(lane->input));
      lane->output = out.value();
      QPINN_CHECK_SHAPE(
          lane->output.rank() == 2 && lane->output.rows() == batch_rows_ &&
              lane->output.cols() == 2,
          "CompiledModel: forward must produce (batch_rows, 2)");
    }
    // The forward graph is gone (constants only, destroyed with the
    // block), so the pass pipeline sees plan-private intermediates; the
    // lane's output stays pinned.
    autodiff::finalize_plan(lane->plan, {lane->output});
    lanes_.push_back(std::move(lane));
  }
}

std::shared_ptr<const CompiledModel> CompiledModel::compile(
    std::shared_ptr<core::FieldModel> model, std::int64_t batch_rows,
    ModelInfo info, std::size_t lanes) {
  if (lanes == 0) lanes = env_count("QPINN_SERVE_WORKERS", 1);
  // The constructor is private so every instance is born inside a
  // shared_ptr<const>; make_shared cannot reach it, hence the raw new
  // immediately owned by the returned pointer.
  return std::shared_ptr<const CompiledModel>(
      new CompiledModel(std::move(model), batch_rows, info, lanes));  // lint-allow: naked-new
}

std::size_t CompiledModel::arena_bytes() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->plan.arena_bytes();
  return total;
}

void CompiledModel::evaluate_into(const double* xy, std::int64_t rows,
                                  double* uv) const {
  QPINN_CHECK(rows >= 0, "CompiledModel: rows must be >= 0");
  if (rows == 0) return;
  QPINN_CHECK(xy != nullptr && uv != nullptr,
              "CompiledModel: xy/uv must not be null");
  // Round-robin lane selection: concurrent callers land on distinct lanes
  // and replay in parallel; two callers hashed to the same lane simply
  // queue on that lane's mutex, never on a global one.
  const std::size_t pick =
      next_lane_.fetch_add(1, std::memory_order_relaxed) % lanes_.size();
  Lane& lane = *lanes_[pick];
  MutexLock lock(lane.mu);
  double* in = lane.input.data();
  const double* out = lane.output.data();
  std::int64_t done = 0;
  while (done < rows) {
    const std::int64_t n = std::min(batch_rows_, rows - done);
    // Partial fringe: only the live rows are copied in; the pinned tail
    // keeps whatever the previous batch held, and those rows are computed
    // but never read. Row-value independence makes each live row
    // bit-identical to the same row of an eager forward at the captured
    // batch shape (see the contract note in the header).
    std::copy(xy + done * 2, xy + (done + n) * 2, in);
    lane.plan.replay();
    std::copy(out, out + n * 2, uv + done * 2);
    done += n;
  }
}

Tensor CompiledModel::evaluate(const Tensor& xy) const {
  QPINN_CHECK_SHAPE(xy.rank() == 2 && xy.cols() == 2,
                    "CompiledModel: input must be (rows, 2)");
  Tensor uv = Tensor::zeros({xy.rows(), 2});
  evaluate_into(xy.data(), xy.rows(), uv.data());
  return uv;
}

}  // namespace qpinn::serve
