#include "optim/adam.hpp"

#include <cmath>

#include "tensor/kernels.hpp"
#include "util/error.hpp"
#include "util/invariant.hpp"

namespace qpinn::optim {
namespace {

/// Checked-build (QPINN_CHECKED) agreement validation between an imported
/// OptimizerState and the optimizer's parameters: step count non-negative,
/// slot count an exact per-parameter multiple, every slot tensor internally
/// consistent (Tensor::validate). Violations raise InvariantError at site
/// "optim.import_state" — a corrupted checkpoint is caught here rather
/// than silently skewing bias correction or moment shapes. No-op in
/// release builds.
void validate_state_agreement(const OptimizerState& state,
                              const std::vector<autodiff::Variable>& params) {
#ifdef QPINN_CHECKED
  QPINN_INVARIANT(state.step_count >= 0, "optim.import_state",
                  "param-agreement",
                  "Adam::import_state: negative step count " +
                      std::to_string(state.step_count) +
                      " (corrupted state would skew bias correction)");
  QPINN_INVARIANT(
      state.slots.empty() || params.empty() ||
          state.slots.size() % params.size() == 0,
      "optim.import_state", "param-agreement",
      "Adam::import_state: " + std::to_string(state.slots.size()) +
          " slots is not a whole number of per-parameter buffers for " +
          std::to_string(params.size()) + " parameters");
  for (const Tensor& slot : state.slots) {
    slot.validate("optim.import_state");
  }
#else
  (void)state;
  (void)params;
#endif
}

/// Extracts one per-parameter buffer group from `state.slots[offset ...]`,
/// shape-checked against `params`; `what` labels errors.
std::vector<Tensor> clone_slot_group(
    const OptimizerState& state, std::size_t offset,
    const std::vector<autodiff::Variable>& params, const char* what) {
  QPINN_CHECK(offset + params.size() <= state.slots.size(),
              std::string(what) + ": optimizer state is missing slots");
  std::vector<Tensor> group;
  group.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& slot = state.slots[offset + i];
    QPINN_CHECK_SHAPE(slot.same_shape(params[i].value()),
                      std::string(what) + ": slot " + std::to_string(i) +
                          " shape mismatch");
    group.push_back(slot.clone());
  }
  return group;
}

}  // namespace

Adam::Adam(std::vector<autodiff::Variable> params, const AdamConfig& config)
    : params_(std::move(params)), lr_(config.lr), config_(config) {
  QPINN_CHECK(!params_.empty(), "optimizer needs at least one parameter");
  QPINN_CHECK(lr_ > 0.0, "learning rate must be positive");
  for (const auto& p : params_) {
    QPINN_CHECK(p.defined() && p.requires_grad(),
                "optimizer parameters must be trainable leaves");
  }
  QPINN_CHECK(config.beta1 >= 0.0 && config.beta1 < 1.0,
              "beta1 must be in [0, 1)");
  QPINN_CHECK(config.beta2 >= 0.0 && config.beta2 < 1.0,
              "beta2 must be in [0, 1)");
  QPINN_CHECK(config.eps > 0.0, "eps must be positive");
  // Eager: allocating the moment buffers lazily inside the first step
  // used to consume pooled buffers mid-step, so the warmup step never
  // reached the steady-state allocation pattern and the first measured
  // step still hit the heap (the 0.2 allocs/op the benchmark tracked).
  zero_state();
}

void Adam::zero_state() {
  m_.clear();
  v_.clear();
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Tensor::zeros(p.value().shape()));
    v_.push_back(Tensor::zeros(p.value().shape()));
  }
}

void Adam::set_lr(double lr) {
  QPINN_CHECK(lr > 0.0, "learning rate must be positive");
  lr_ = lr;
}

OptimizerState Adam::export_state() const {
  OptimizerState state;
  state.step_count = step_count_;
  state.slots.reserve(m_.size() + v_.size());
  for (const Tensor& t : m_) state.slots.push_back(t.clone());
  for (const Tensor& t : v_) state.slots.push_back(t.clone());
  return state;
}

void Adam::import_state(const OptimizerState& state) {
  validate_state_agreement(state, params_);
  if (state.slots.empty()) {
    zero_state();
  } else {
    QPINN_CHECK(state.slots.size() == 2 * params_.size(),
                "Adam::import_state expects 2 slots per parameter");
    m_ = clone_slot_group(state, 0, params_, "Adam m");
    v_ = clone_slot_group(state, params_.size(), params_, "Adam v");
  }
  step_count_ = state.step_count;
}

void Adam::step(const std::vector<Tensor>& grads) {
  QPINN_CHECK(grads.size() == params_.size(),
              "step(): gradient count mismatch");
  for (std::size_t i = 0; i < grads.size(); ++i) {
    QPINN_CHECK_SHAPE(grads[i].same_shape(params_[i].value()),
                      "step(): gradient " + std::to_string(i) +
                          " shape mismatch");
    if (!grads[i].all_finite()) {
      throw NumericsError("non-finite gradient in optimizer step (parameter " +
                          std::to_string(i) + ")");
    }
  }
  ++step_count_;
  kernels::AdamStepConfig cfg;
  cfg.lr = lr_;
  cfg.beta1 = config_.beta1;
  cfg.beta2 = config_.beta2;
  cfg.eps = config_.eps;
  cfg.bias_corr1 = 1.0 - std::pow(config_.beta1, step_count_);
  cfg.bias_corr2 = 1.0 - std::pow(config_.beta2, step_count_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    // Single fused sweep per buffer (moments, bias correction,
    // parameter write); elementwise and collision-free, so
    // chunking over the pool is exact — determinism is untouched by
    // thread count.
    kernels::adam_step_inplace(params_[i].mutable_value(), grads[i], m_[i],
                               v_[i], cfg);
  }
}

}  // namespace qpinn::optim
