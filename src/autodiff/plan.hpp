// Graph capture & replay: a compiled execution plan for the training step.
//
// PINN training re-runs a structurally identical graph every step. The eager
// tape rebuilds that graph from scratch each time — Node allocations,
// shared_ptr refcount traffic, and pool round-trips on every intermediate.
// This module records the step ONCE and replays a flat, topologically-ordered
// array of kernel thunks against buffers bound once after capture, so
// steady-state replay performs zero Node allocations, zero refcount traffic,
// and zero pool lookups.
//
// Capture model: capture is two-phase. A thread-local recorder is armed by
// CaptureScope. While it is armed, every tape op (autodiff/ops.cpp) and
// every gradient-accumulation kernel (autodiff/grad.cpp) appends a thunk
// that re-executes the SAME kernel function. The thunk names its operands
// symbolically, by plan buffer id (an Operand: id plus view shape). Each id
// remembers a weak handle on the storage it was recorded from, which pins
// nothing: the captured step frees its intermediates exactly as an eager
// step does. The handle only tells a recycled data pointer (the pool handing
// a freed buffer to a new tensor) apart from the buffer the id names. The
// plan keeps a tensor only for what the host sees: external inputs, i.e.
// any buffer read before a thunk writes it (parameters, points, weights,
// host-built constants). Declared outputs are held by the host itself.
//
// Storage is bound once, after the optimizer passes (plan_passes.hpp) have
// rewritten the symbolic thunks: an id whose storage is still alive keeps
// it, and every other id gets an arena slot from the storage pool, which
// the captured step has just refilled. The bound buffers stay pinned for
// the plan's lifetime (the "arena": they are not round-tripped through the
// pool between replays). A plan no pass touches binds one slot per id,
// lazily at its first replay.
//
// Thunks are structured, not opaque closures: each records its kernel entry
// point (a function pointer for the common unary/scalar/binary shapes), its
// output operand, and its input operands. That metadata is what makes the
// plan an analyzable IR — the optimizer passes walk the recorded thunks to
// eliminate dead thunks, fuse adjacent elementwise sequences into the
// fused kernels, and color non-overlapping buffer lifetimes onto shared
// arena slots. Structural kernels that need extra immediates
// (pad/slice/concat) record an opaque closure that receives its bound
// operands when it runs, and declare their read/write sets so the analyses
// stay sound.
//
// Bit-identity contract: replay calls the identical kernel entry points in
// the identical order as the eager step that was captured, on operands that
// hold the identical values: external inputs are the host's own buffers,
// and every other buffer is rewritten by its recorded producer before any
// thunk reads it. All kernels are deterministic for a fixed thread count
// and SIMD variant, so replayed losses/gradients are bit-identical to eager
// execution, checkpoints resume exactly across modes, and QPINN_GRAPH=off
// is a pure escape hatch. Anything that breaks the premise — batch shape,
// thread count, ISA, precision mode, dist world size and rank, or the
// identity of an external input — must invalidate the plan (the trainer
// keys plans on exactly those inputs and re-captures with a logged
// fallback). The optimizer passes preserve the contract by construction
// (see plan_passes.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.hpp"

namespace qpinn::autodiff::plan {

/// Kernel signatures a structured thunk can carry (the `_into` variants in
/// tensor/kernels.hpp).
using UnaryKernel = void (*)(Tensor&, const Tensor&);
using UnaryScalarKernel = void (*)(Tensor&, const Tensor&, double);
using BinaryKernel = void (*)(Tensor&, const Tensor&, const Tensor&);
/// An opaque structural kernel: receives its bound output and inputs when it
/// runs, so it captures immediates only, never a buffer.
using OpaqueKernel =
    std::function<void(Tensor& out, const std::vector<Tensor>& ins)>;

/// Discriminates how a Thunk executes and which operand slots it uses.
enum class ThunkKind : std::uint8_t {
  /// `run(out, ins)` closure; writes only `out`, reads only `ins` (declared
  /// so the optimizer passes can reason about liveness without seeing
  /// inside).
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

/// Plan-local buffer id: an index into the plan's recorded buffer table.
using BufId = std::uint32_t;
inline constexpr BufId kNoBuffer = static_cast<BufId>(-1);

/// A recorded operand: the plan buffer it names and the shape the kernel
/// views it with (a reshape views one buffer under another shape).
struct Operand {
  BufId buf = kNoBuffer;
  Shape shape;
};

/// What a thunk executes, whatever names its operands.
struct ThunkOp {
  ThunkKind kind = ThunkKind::kOpaque;
  UnaryKernel k1 = nullptr;
  UnaryScalarKernel k1s = nullptr;
  BinaryKernel k2 = nullptr;
  OpaqueKernel run;  ///< kOpaque only
  double scalar = 0.0;

  /// True when this thunk reads `out`'s prior contents (accumulation).
  bool reads_out() const { return kind == ThunkKind::kAxpyAcc; }
};

/// One kernel invocation and its operands.
template <class Arg>
struct BasicThunk : ThunkOp {
  Arg out;
  std::vector<Arg> ins;
};

/// A thunk as recorded: operands are buffer ids. The passes rewrite these.
using RecordedThunk = BasicThunk<Operand>;
/// A thunk bound to storage: operands are views of the plan's arena and of
/// the host's buffers. Re-running it recomputes the same values into the
/// same memory.
using Thunk = BasicThunk<Tensor>;

/// Per-plan optimizer statistics, recorded by plan_passes.hpp when the pass
/// pipeline runs over a finalized capture (all zero for verbatim plans).
struct PassStats {
  std::size_t thunks_before = 0;
  std::size_t thunks_after = 0;
  std::size_t dead_eliminated = 0;  ///< pass 1: dead-thunk elimination
  std::size_t fused = 0;            ///< pass 2: thunks removed by fusion
  std::size_t buffers_rebound = 0;  ///< pass 3: buffers moved onto shared slots
  std::size_t arena_buffers_before = 0;
  std::size_t arena_buffers_after = 0;
  std::size_t arena_bytes_before = 0;
  std::size_t arena_bytes_after = 0;
};

/// A recorded schedule: a flat array of kernel invocations over symbolic
/// buffers, bound to storage once (see the capture model above). Move-only
/// — the bound thunks own the arena.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;
  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;
  ExecutionPlan(ExecutionPlan&&) = default;
  ExecutionPlan& operator=(ExecutionPlan&&) = default;

  /// Re-executes every recorded kernel in capture order, binding storage
  /// first (one slot per buffer) if nothing has bound it yet, and counts
  /// one replay in PlanStats.
  void replay();
  /// replay() without the count: the capture step running its own freshly
  /// demoted plan is still counted as a capture, not a replay.
  void run();

  /// Number of kernel invocations, recorded or bound.
  std::size_t size() const { return bound_ ? steps_.size() : recorded_.size(); }
  bool empty() const { return size() == 0; }

  /// Number of distinct buffers the thunks write and their total payload in
  /// bytes (the plan's arena footprint): per recorded buffer id before
  /// binding, per bound storage after it.
  std::size_t arena_buffers() const { return arena_buffers_; }
  std::size_t arena_bytes() const { return arena_bytes_; }

  /// Payload bytes of the host-built constants only this plan keeps alive:
  /// external inputs nobody else held when storage was bound (e.g. jet
  /// seeds the captured step built and dropped). Eager frees them after
  /// their last use; a plan must keep them for replay. Zero until bound.
  std::size_t constant_bytes() const { return constant_bytes_; }

  /// True once storage is bound; thunks() is empty until then.
  bool bound() const { return bound_; }

  /// Read-only view of the bound thunks.
  const std::vector<Thunk>& thunks() const { return steps_; }

  // ---- recorded buffer table (the optimizer passes' view; valid until the
  // plan is bound) ----

  /// Number of buffer ids recorded; every Operand::buf is below it.
  std::size_t buffer_count() const { return buffers_.size(); }
  /// Element count of buffer `id`.
  std::int64_t buffer_numel(BufId id) const { return buffers_[id].numel; }
  /// The id `t`'s storage was recorded under, or kNoBuffer when the plan
  /// never touched that storage.
  BufId buffer_of(const Tensor& t) const;
  /// True when the host can observe buffer `id`: an external input the plan
  /// pins, or storage someone outside the plan still holds. Such a buffer
  /// keeps its storage at binding; every other buffer is plan-owned.
  bool host_holds(BufId id) const;

  /// Binds storage, one slot per buffer, unless already bound.
  void ensure_bound();

  // ---- rewrite API: ONLY the optimizer passes (plan_passes.cpp) and
  // demotion (precision.cpp) may call these — plans must otherwise stay
  // verbatim captures, and the lint rule `plan-thunk-mutation` bans call
  // sites outside src/autodiff/. ----

  /// Moves the recorded thunks out (empty once bound); pair with
  /// bind_buffers.
  std::vector<RecordedThunk> take_recorded();

  /// Binds `thunks` (recorded thunks over this plan's buffer ids) to
  /// storage and makes them the plan's schedule. `slots[id]` names the
  /// buffer whose arena slot `id` shares (itself for its own slot; empty =
  /// one slot per buffer). A buffer the host holds keeps its storage and
  /// must be its own slot. Releases the recorded buffer table.
  void bind_buffers(std::vector<RecordedThunk> thunks,
                    const std::vector<BufId>& slots);

  /// Replaces the bound thunk array and recomputes the arena index.
  void set_thunks(std::vector<Thunk> thunks);

  /// Moves the bound thunk array out, leaving the plan empty; pair with
  /// set_thunks.
  std::vector<Thunk> take_thunks();

  /// Optimizer statistics for this plan (zeros unless the pass pipeline
  /// ran; see plan_passes.hpp).
  const PassStats& pass_stats() const { return pass_stats_; }
  void set_pass_stats(const PassStats& s) { pass_stats_ = s; }

  void clear();

 private:
  friend class Recorder;

  /// One recorded buffer.
  struct Buffer {
    Tensor::StorageHandle handle;  ///< never pins; see the capture model
    std::int64_t numel = 0;
    std::optional<Tensor> host;    ///< external input, pinned by the plan
    bool written = false;          ///< some thunk writes it (arena member)
  };

  std::vector<RecordedThunk> recorded_;
  std::vector<Buffer> buffers_;
  /// Recorder lookup: the id last recorded at each data pointer.
  std::unordered_map<const double*, BufId> buffer_at_;
  std::vector<Thunk> steps_;
  bool bound_ = false;
  std::size_t arena_buffers_ = 0;
  std::size_t arena_bytes_ = 0;
  std::size_t constant_bytes_ = 0;
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
/// Structural kernels with extra immediates (pad/slice/concat): `run`
/// receives the bound `out` and `ins` when it runs, must write only `out`
/// and read only `ins`, and is a black box to the optimizer passes with
/// exactly that read/write set.
void record_opaque(const Tensor& out, const std::vector<Tensor>& ins,
                   OpaqueKernel run);

/// Process-wide capture/replay counters (monotonic until reset), reported
/// alongside the storage-pool counters. The optimizer-pass counters
/// aggregate the per-plan PassStats of every optimized plan.
struct PlanStats {
  std::uint64_t plans_captured = 0;
  std::uint64_t replays = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t plans_optimized = 0;
  std::uint64_t thunks_eliminated = 0;  ///< dead + fused, all plans
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
