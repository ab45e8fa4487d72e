// Graph capture & replay: a compiled execution plan for the training step.
//
// PINN training re-runs a structurally identical graph every step. The eager
// tape rebuilds that graph from scratch each time — Node allocations,
// shared_ptr refcount traffic, and pool round-trips on every intermediate.
// This module records the step ONCE and replays a flat, topologically-ordered
// array of kernel thunks against buffers pinned at capture time, so
// steady-state replay performs zero Node allocations, zero refcount traffic,
// and zero pool lookups.
//
// Capture model: a thread-local recorder is armed by CaptureScope. While it
// is armed, every tape op (autodiff/ops.cpp) and every gradient-accumulation
// kernel (autodiff/grad.cpp) appends a thunk that re-executes the SAME kernel
// function into the SAME output buffer. The recorded tensors share storage
// with the live graph, which pins those buffers for the plan's lifetime (the
// "arena": buffers are not round-tripped through the pool between replays).
//
// Thunks are structured, not opaque closures: each records its kernel entry
// point (a function pointer for the common unary/scalar/binary shapes), its
// output tensor, and its input tensors. That metadata is what makes the plan
// an analyzable IR — the optimizer passes in autodiff/plan_passes.hpp walk
// the thunk array to eliminate dead thunks, fuse adjacent elementwise
// sequences into the fused kernels, compute repeated values once, and
// re-bind non-overlapping buffer lifetimes onto shared arena storage.
// Structural kernels that need extra immediates (pad/slice/concat) record an
// opaque closure but still declare their read/write sets so the analyses
// stay sound.
//
// Bit-identity contract: replay calls the identical kernel entry points with
// the identical operand buffers in the identical order as the eager step that
// was captured, and all kernels are deterministic for a fixed thread count
// and SIMD variant. Replayed losses/gradients are therefore bit-identical to
// eager execution, checkpoints resume exactly across modes, and
// QPINN_GRAPH=off is a pure escape hatch. Anything that breaks the premise —
// batch shape, thread count, ISA, or buffer identity changes — must
// invalidate the plan (the trainer keys plans on exactly those inputs and
// re-captures with a logged fallback). The optimizer passes preserve the
// contract by construction (see plan_passes.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "tensor/tensor.hpp"

namespace qpinn::autodiff::plan {

/// Kernel signatures a structured thunk can carry (the `_into` variants in
/// tensor/kernels.hpp).
using UnaryKernel = void (*)(Tensor&, const Tensor&);
using UnaryScalarKernel = void (*)(Tensor&, const Tensor&, double);
using BinaryKernel = void (*)(Tensor&, const Tensor&, const Tensor&);

/// Discriminates how a Thunk executes and which operand slots it uses.
enum class ThunkKind : std::uint8_t {
  /// `run()` closure; writes only `out`, reads only `ins` (declared so the
  /// optimizer passes can reason about liveness without seeing inside).
  kOpaque,
  /// k1(out, ins[0]) — full overwrite of out.
  kUnary,
  /// k1s(out, ins[0], scalar) — full overwrite of out.
  kUnaryScalar,
  /// k2(out, ins[0], ins[1]) — full overwrite of out.
  kBinary,
  /// axpy_inplace(out, scalar, ins[0]) — reads AND writes out (gradient
  /// accumulation into an owned buffer).
  kAxpyAcc,
  /// copy_into(out, ins[0]); axpy_inplace(out, scalar, ins[1]) — full
  /// overwrite of out (first-collision gradient accumulator materialize).
  kCopyAxpy,
  /// fill_zero(out) — constant-zero gradient buffers callers axpy into.
  kZero,
};

/// One recorded kernel invocation. The operand tensors share storage with
/// the buffers pinned at capture time; re-running the thunk recomputes the
/// same values into the same memory.
///
/// Purity premise: a structured kernel (kUnary, kUnaryScalar, kBinary)
/// reads only `ins` and `scalar` and fully overwrites `out`, so for a fixed
/// thread count and ISA its result is a deterministic function of its
/// operand values and shapes. Common-subexpression elimination
/// (plan_passes.hpp) relies on this to compute a repeated value once; a
/// kernel that reads any other state must be recorded as kOpaque.
struct Thunk {
  ThunkKind kind = ThunkKind::kOpaque;
  UnaryKernel k1 = nullptr;
  UnaryScalarKernel k1s = nullptr;
  BinaryKernel k2 = nullptr;
  std::function<void()> run;  ///< kOpaque only
  Tensor out;
  std::vector<Tensor> ins;
  double scalar = 0.0;

  /// True when this thunk reads `out`'s prior contents (accumulation).
  bool reads_out() const { return kind == ThunkKind::kAxpyAcc; }
};

/// Per-plan optimizer statistics, recorded by plan_passes.hpp when the pass
/// pipeline runs over a finalized capture (all zero for verbatim plans).
struct PassStats {
  std::size_t thunks_before = 0;
  std::size_t thunks_after = 0;
  std::size_t dead_eliminated = 0;  ///< pass 1: dead-thunk elimination
  std::size_t fused = 0;            ///< pass 2: thunks removed by fusion
  std::size_t cse_eliminated = 0;   ///< pass 3: repeated computations removed
  std::size_t buffers_rebound = 0;  ///< pass 4: buffers moved onto shared slots
  std::size_t arena_buffers_before = 0;
  std::size_t arena_buffers_after = 0;
  std::size_t arena_bytes_before = 0;
  std::size_t arena_bytes_after = 0;
};

/// An immutable recorded schedule: a flat array of kernel invocations whose
/// operand/output buffers were resolved at capture time. Move-only — the
/// thunks close over pinned storage that must not be double-owned.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;
  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;
  ExecutionPlan(ExecutionPlan&&) = default;
  ExecutionPlan& operator=(ExecutionPlan&&) = default;

  /// Re-executes every recorded kernel in capture order.
  void replay() const;

  /// Number of recorded kernel invocations.
  std::size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

  /// Number of distinct output buffers pinned by this plan and their total
  /// payload in bytes (the plan's arena footprint).
  std::size_t arena_buffers() const { return arena_buffers_; }
  std::size_t arena_bytes() const { return arena_bytes_; }

  /// Read-only view of the recorded thunks (the optimizer passes' input).
  const std::vector<Thunk>& thunks() const { return steps_; }

  /// Replaces the thunk array and recomputes the arena index from the new
  /// output set. ONLY the optimizer passes (src/autodiff/plan_passes.cpp)
  /// may call this — plans must otherwise stay verbatim captures, and the
  /// lint rule `plan-thunk-mutation` bans call sites outside src/autodiff/.
  void set_thunks(std::vector<Thunk> thunks);

  /// Moves the thunk array out, leaving the plan empty; pair with
  /// set_thunks. Avoids doubling every tensor's refcount during a pass
  /// (the liveness analysis proves buffer privacy by exact reference
  /// counting). Same restriction as set_thunks.
  std::vector<Thunk> take_thunks();

  /// Optimizer statistics for this plan (zeros unless the pass pipeline
  /// ran; see plan_passes.hpp).
  const PassStats& pass_stats() const { return pass_stats_; }
  void set_pass_stats(const PassStats& s) { pass_stats_ = s; }

  void clear();

 private:
  friend void record_thunk(Thunk thunk);

  // `replay() const` executes kernels that write through the thunks' output
  // tensors; the array itself is logically immutable between set_thunks
  // calls, hence mutable rather than a const_cast at every dispatch.
  mutable std::vector<Thunk> steps_;
  std::unordered_set<const void*> seen_buffers_;
  std::size_t arena_buffers_ = 0;
  std::size_t arena_bytes_ = 0;
  PassStats pass_stats_;
};

/// What a CaptureScope is allowed to record. kTraining captures the full
/// step (forward kernels plus gradient accumulation); kForwardOnly is the
/// serving mode — the plan must contain pure value-producing kernels, so a
/// gradient-accumulation thunk reaching the recorder is a ValueError (it
/// means a tape was built inside what should be inference).
enum class CaptureKind { kTraining, kForwardOnly };

/// Arms the thread-local recorder for the enclosed eager step. Non-reentrant
/// nesting is allowed (the previous recorder is restored on destruction);
/// capture is per-thread, so data-parallel shards record concurrently into
/// their own plans.
class CaptureScope {
 public:
  explicit CaptureScope(ExecutionPlan& plan,
                        CaptureKind kind = CaptureKind::kTraining);
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;
  ~CaptureScope();

 private:
  ExecutionPlan* prev_ = nullptr;
  CaptureKind prev_kind_ = CaptureKind::kTraining;
};

/// True while a CaptureScope is armed on this thread.
bool capturing();

/// True while the armed CaptureScope (if any) is forward-only.
bool capturing_forward_only();

// Recording API — each appends one thunk to the armed plan (no-op unless
// capturing). The structured variants carry the kernel pointer and operands
// so the optimizer passes can inspect them.
void record_unary(const Tensor& out, UnaryKernel k, const Tensor& a);
void record_unary_scalar(const Tensor& out, UnaryScalarKernel k,
                         const Tensor& a, double s);
void record_binary(const Tensor& out, BinaryKernel k, const Tensor& a,
                   const Tensor& b);
/// Gradient accumulation `dst += s * src` into an already-recorded buffer.
/// Throws ValueError under a forward-only capture (see CaptureKind).
void record_axpy_acc(const Tensor& dst, double s, const Tensor& src);
/// First-collision accumulator materialize: `dst = first; dst += s * src`.
/// Throws ValueError under a forward-only capture.
void record_copy_axpy(const Tensor& dst, const Tensor& first, double s,
                      const Tensor& src);
/// Constant-zero gradient buffer restored on every replay.
void record_zero(const Tensor& out);
/// Structural kernels with extra immediates (pad/slice/concat): `run` must
/// write only `out` and read only `ins` — both are declared here so the
/// optimizer passes can treat the closure as a black box with a known
/// read/write set (buffers touched by opaque thunks are never re-bound).
void record_opaque(const Tensor& out, std::vector<Tensor> ins,
                   std::function<void()> run);

/// Process-wide capture/replay counters (monotonic until reset), reported
/// alongside the storage-pool counters. The optimizer-pass counters
/// aggregate the per-plan PassStats of every optimized plan.
struct PlanStats {
  std::uint64_t plans_captured = 0;
  std::uint64_t replays = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t plans_optimized = 0;
  std::uint64_t thunks_eliminated = 0;  ///< dead + fused + CSE, all plans
  std::uint64_t arena_bytes_saved = 0;
};
PlanStats plan_stats();
void reset_plan_stats();
/// Called by plan owners when an armed plan is discarded for re-capture
/// (shape/thread/ISA change).
void count_fallback();
/// Called by the pass pipeline after optimizing one plan.
void count_optimized(const PassStats& s);

/// Parses QPINN_GRAPH: unset/empty/"on"/"1"/"true"/"yes" -> true (replay is
/// the default), "off"/"0"/"false"/"no" -> false; anything else throws
/// ConfigError.
bool graph_env_enabled();

}  // namespace qpinn::autodiff::plan
