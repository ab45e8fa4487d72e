// Optimizer passes over a captured ExecutionPlan.
//
// A finalized capture is a flat, topologically-ordered array of recorded
// thunks over symbolic buffer ids — an IR. The pipeline here runs ONCE at
// capture finalization (training plans and forward-only serving plans
// alike), rewrites that IR without changing any replayed value, and then
// binds storage (ExecutionPlan::bind_buffers):
//
//   1. Dead-thunk elimination — a thunk whose output buffer is never read
//      by a later thunk and is not a bound plan output computes a value
//      nobody observes (e.g. forward values of zero-weight auxiliary loss
//      terms); drop it. Iterated to a fixpoint, since dropping a consumer
//      can kill its producers.
//   2. Elementwise fusion — adjacent pair/triple/quad sequences whose
//      intermediates die immediately are pattern-matched into the fused
//      `_into` kernels (tensor/kernels.hpp): add+tanh -> bias_tanh,
//      add+sin -> bias_sin, square+sum -> square_sum, the tanh-backward
//      chain square/neg/add_scalar/mul -> tanh_grad, scale/neg folded into
//      gradient-accumulation axpy scalars, and unit-scale copy+axpy -> add.
//      Every rewrite reuses a kernel whose bit-identity against the
//      composition it replaces is already part of the SIMD layer's
//      contract, so replay output is unchanged to the last bit.
//   3. Common-subexpression elimination — value numbering over the
//      structured thunks: a thunk that repeats an earlier one (same kind,
//      kernel, scalar bits, output shape, and the same value and shape of
//      every input) computes nothing new. A repeat whose buffer is
//      plan-owned and written once is erased and its readers, opaque
//      closures included, renamed to the earlier output. Sound by the
//      purity premise on ThunkOp (plan.hpp). The autodiff backward of
//      sin/cos re-derives cos(a)/sin(a) at every derivative order; this
//      pass computes each once.
//   4. Liveness-based arena reuse — buffer live intervals over the thunk
//      sequence are colored greedily (interval partitioning per buffer
//      size class) so non-overlapping lifetimes share one arena slot.
//      Binding then allocates one pooled storage per slot.
//
// Ownership is explicit: a buffer is plan-owned when a thunk writes it
// before any thunk reads it, it is not a declared output, and the host
// does not hold it (ExecutionPlan::host_holds: no external-input tensor
// pinned by the plan, and no live storage outside the plan when the
// passes start). Only plan-owned buffers are dropped by CSE or colored
// onto shared slots; every other buffer keeps its own storage at binding.
//
// Ordering matters. Dead-thunk elimination runs first so no later pass
// spends work on values nobody reads. CSE follows fusion: a merged output
// is read more than once, which fails fusion's read-once test, so merging
// first would share the square(t) of repeated tanh-backward chains and
// leave them as four sweeps instead of one tanh_grad. Liveness runs last
// because fusion and CSE shorten live ranges (intermediates disappear),
// which is exactly what makes interval coloring effective; binding comes
// after all four, so the arena is allocated once, at its final size.
//
// The pipeline is gated by QPINN_PLAN_OPT (same grammar as QPINN_GRAPH);
// with the knob off, plan owners skip optimize_plan() and replay the
// verbatim capture.
#pragma once

#include <vector>

#include "autodiff/plan.hpp"
#include "tensor/tensor.hpp"

namespace qpinn::autodiff::plan {

/// Parses QPINN_PLAN_OPT: unset/empty/"on"/"1"/"true"/"yes" -> true (the
/// passes are on by default), "off"/"0"/"false"/"no" -> false; anything
/// else throws ConfigError.
bool plan_opt_env_enabled();

/// Runs the pass pipeline over `plan`'s recorded thunks and binds its
/// storage; the plan must not be bound yet. `outputs` are the buffers the
/// host reads after replay (loss/gradient/aux tensors, the serving output)
/// — they keep their identity and final value. Buffers the host refreshes
/// in place before replay (batch points, curriculum weights, parameters,
/// the serving input) need no declaration: the recorder pinned them as
/// external inputs because the plan reads them before writing them.
/// Returns the per-plan statistics, which are also stored on the plan and
/// aggregated into plan_stats(). Callers gate on plan_opt_env_enabled();
/// this function itself always runs.
PassStats optimize_plan(ExecutionPlan& plan,
                        const std::vector<Tensor>& outputs);

}  // namespace qpinn::autodiff::plan
