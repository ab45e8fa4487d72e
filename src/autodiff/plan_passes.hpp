// Optimizer passes over a captured ExecutionPlan.
//
// A finalized capture is a flat, topologically-ordered thunk array — an IR.
// The pipeline here runs ONCE at capture finalization (training plans and
// forward-only serving plans alike) and rewrites that IR without changing
// any replayed value:
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
//      every input) computes nothing new. The repeat is erased and its
//      readers renamed to the earlier output; when only the earlier output
//      is private (the repeat feeds an opaque closure), the earlier thunk
//      is retargeted onto the repeat's buffer instead. Sound by the purity
//      premise on Thunk (plan.hpp). The autodiff backward of sin/cos
//      re-derives cos(a)/sin(a) at every derivative order; this pass
//      computes each once.
//   4. Liveness-based arena reuse — buffer live intervals over the thunk
//      sequence are colored greedily (interval partitioning per buffer
//      size class) so non-overlapping lifetimes share one pinned arena
//      slot, shrinking arena_bytes(). Only buffers proven plan-private are
//      re-bound: produced by a structured thunk, not a declared output,
//      never read before their first write, untouched by opaque closures,
//      and with no storage owners outside the plan (storage_use_count()
//      equals the plan-internal reference count).
//
// Ordering matters. Dead-thunk elimination runs first so no later pass
// spends work on values nobody reads. CSE follows fusion: a merged output
// is read more than once, which fails fusion's read-once test, so merging
// first would share the square(t) of repeated tanh-backward chains and
// leave them as four sweeps instead of one tanh_grad. Liveness runs last
// because fusion and CSE shorten live ranges (intermediates disappear),
// which is exactly what makes interval coloring effective, and because
// re-binding invalidates the buffer-identity facts the earlier passes key
// on.
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

/// Runs the pass pipeline over `plan`. `outputs` are the buffers the host
/// reads after replay (loss/gradient/aux tensors, the serving output) —
/// they keep their identity and final value. Buffers the host refreshes in
/// place before replay (batch points, curriculum weights, parameters, the
/// serving input) need no declaration: the passes detect them as external
/// inputs because the plan reads them before writing them. Returns the
/// per-plan statistics, which are also stored on the plan and aggregated
/// into plan_stats(). Callers gate on plan_opt_env_enabled(); this
/// function itself always runs.
PassStats optimize_plan(ExecutionPlan& plan,
                        const std::vector<Tensor>& outputs);

}  // namespace qpinn::autodiff::plan
