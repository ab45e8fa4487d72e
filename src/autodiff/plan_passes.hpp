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
//   3. Liveness-based arena reuse — buffer live intervals over the thunk
//      sequence are colored greedily (interval partitioning per buffer
//      size class) so non-overlapping lifetimes share one arena slot.
//      Binding then allocates one pooled storage per slot.
//
// Ownership is explicit: a buffer is plan-owned when a thunk writes it
// before any thunk reads it, it is not a declared output, and the host
// does not hold it (ExecutionPlan::host_holds: no external-input tensor
// pinned by the plan, and no live storage outside the plan when the
// passes start). Only plan-owned buffers are colored onto shared slots;
// every other buffer keeps its own storage at binding.
//
// Ordering matters. Dead-thunk elimination runs first so no later pass
// spends work on values nobody reads. Liveness runs last because fusion
// shortens live ranges (intermediates disappear), which is what makes
// interval coloring effective; binding comes after all three, so the
// arena is allocated once, at its final size.
//
// No pass merges repeated computations. The forward jets share φ', φ''
// and sin/cos across their streams, so a jet plan computes each value
// once (tests/plan_passes_test.cpp checks it). What repeats is the reverse
// sweep over a hard initial condition's psi0: six [N, 1] sin/cos columns
// on the B1 plan, too small to pay for a pass.
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
