// Mixed-precision plan demotion: fp32 compute under fp64 master state.
//
// Mixed precision in qpinn is a PLAN-LEVEL transformation, not a tensor
// dtype. Tensors stay double everywhere — parameters, optimizer moments,
// checkpoints, dist all-reduce buffers, and the serving capture all keep
// their fp64 representation and code paths untouched. What changes is how
// a captured ExecutionPlan replays: demote_plan() rewrites the thunk array
// so the demotable kernels (elementwise sweeps, row broadcasts, fused
// activations, matmuls) execute through the fp32 SIMD tables against
// pooled float shadow buffers, with conversion thunks inserted at the
// precision boundary:
//
//   - every fp64-resident input of a demoted thunk gets a downcast thunk
//     that runs on EVERY replay — so parameters updated by the fp64 Adam
//     sweep between steps are re-published to fp32 automatically
//     (downcast-on-publish; the master weights never live in fp32);
//   - reductions (sum_all, square_sum_all, weighted_square_sum_all) read
//     fp32 operands but accumulate in and write fp64 (the fp32 kernel
//     tables promote per element), so losses keep fp64 accumulation;
//   - thunks kept on fp64 kernels (strided broadcasts, pad/slice/concat
//     opaques) get upcast thunks for any fp32-resident input, and every
//     declared plan output is upcast back to its fp64 buffer at the end —
//     the trainer, optimizer, and checkpoints only ever observe doubles.
//
// The pass walks thunks in replay order tracking per-buffer residency
// (which of the fp64 buffer / fp32 shadow holds the current value), which
// is exactly correct under arena reuse because walk order equals replay
// order. A demoted plan is terminal: its thunks are opaque closures over
// raw shadow pointers, so no optimizer pass may run after demotion
// (demote last, after plan::optimize_plan).
//
// Only captured plans demote, a dist rank's shard plan like a threads-mode
// shard's. Eager steps (QPINN_GRAPH=off), the epoch-0 capture step and the
// L-BFGS stage run fp64, so QPINN_GRAPH=off composes with QPINN_PRECISION by
// simply running everything fp64. A capture at a later epoch (rejoin,
// degrade, resume) runs its demoted plan once, so that epoch's bits match a
// run that replayed there.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "autodiff/plan.hpp"
#include "tensor/tensor.hpp"

namespace qpinn::autodiff {

/// What precision captured plans replay in. kFp64 is the default and is
/// bit-identical to eager execution; kMixed runs demoted fp32 compute
/// gated by tolerances (tests/precision_test.cpp).
enum class Precision { kFp64, kMixed };

/// Parses QPINN_PRECISION once: unset/""/"fp64" -> kFp64, "mixed" ->
/// kMixed, anything else throws ConfigError. Cached after first call.
Precision precision_mode();

/// Runtime override for tests and benchmarks; wins over the environment
/// for all subsequent precision_mode() calls.
void set_precision_mode(Precision p);

const char* precision_name(Precision p);

/// What demote_plan did to one plan (logged by the trainer, asserted by
/// tests).
struct DemoteStats {
  std::size_t thunks_before = 0;
  std::size_t demoted = 0;      ///< thunks now executing through fp32 tables
  std::size_t kept_fp64 = 0;    ///< thunks left on their fp64 kernels
  std::size_t downcasts = 0;    ///< inserted fp64 -> fp32 boundary thunks
  std::size_t upcasts = 0;      ///< inserted fp32 -> fp64 boundary thunks
  std::size_t shadow_buffers = 0;
  std::size_t shadow_bytes = 0;
};

/// Rewrites `plan` in place for fp32 replay as described above. `outputs`
/// are the tensors the plan's consumers read after replay() (loss, grads,
/// aux) — each is guaranteed fp64-resident when replay returns. Safe to
/// call on any finalized captured plan, including one already processed
/// by plan::optimize_plan; binds the plan's storage (one slot per buffer)
/// if no pass did, and must be the LAST pass applied.
DemoteStats demote_plan(plan::ExecutionPlan& plan,
                        const std::vector<Tensor>& outputs);

/// What finalize_plan ran: the optimizer's stats when QPINN_PLAN_OPT is
/// on, the demotion stats when the precision mode is mixed.
struct FinalizeStats {
  std::optional<plan::PassStats> passes;
  std::optional<DemoteStats> demotion;
};

/// The finalize policy of every captured plan (trainer shards, serving
/// lanes): plan::optimize_plan (the passes over recorded buffer ids, then
/// storage binding) when plan::plan_opt_env_enabled(), then demote_plan
/// when precision_mode() is kMixed — demotion last, on the bound plan,
/// because a demoted plan is terminal. A plan neither step touches binds
/// at its first replay. `outputs` are the host-read buffers, declared to
/// both passes. Call once the eager Variable graph of the capture is
/// destroyed, so its intermediates are plan-owned and bind onto arena
/// slots instead of keeping their storage.
FinalizeStats finalize_plan(plan::ExecutionPlan& plan,
                            const std::vector<Tensor>& outputs);

}  // namespace qpinn::autodiff
