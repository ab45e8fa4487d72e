#include "autodiff/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <functional>
#include <initializer_list>
#include <string>
#include <unordered_set>
#include <utility>

#include "tensor/kernels.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn::autodiff::plan {

namespace {

thread_local ExecutionPlan* g_recorder = nullptr;
thread_local CaptureKind g_capture_kind = CaptureKind::kTraining;

std::atomic<std::uint64_t> g_captured{0};
std::atomic<std::uint64_t> g_replays{0};
std::atomic<std::uint64_t> g_fallbacks{0};
std::atomic<std::uint64_t> g_optimized{0};
std::atomic<std::uint64_t> g_thunks_eliminated{0};
std::atomic<std::uint64_t> g_arena_bytes_saved{0};

void run_thunk(Thunk& t) {
  switch (t.kind) {
    case ThunkKind::kUnary:
      t.k1(t.out, t.ins[0]);
      break;
    case ThunkKind::kUnaryScalar:
      t.k1s(t.out, t.ins[0], t.scalar);
      break;
    case ThunkKind::kBinary:
      t.k2(t.out, t.ins[0], t.ins[1]);
      break;
    case ThunkKind::kAxpyAcc:
      kernels::axpy_inplace(t.out, t.scalar, t.ins[0]);
      break;
    case ThunkKind::kCopyAxpy:
      kernels::copy_into(t.out, t.ins[0]);
      kernels::axpy_inplace(t.out, t.scalar, t.ins[1]);
      break;
    case ThunkKind::kZero:
      kernels::fill_zero(t.out);
      break;
    case ThunkKind::kOpaque:
      t.run(t.out, t.ins);
      break;
  }
}

void check_not_forward_only() {
  if (g_capture_kind == CaptureKind::kForwardOnly) {
    throw ValueError(
        "gradient-accumulation kernel recorded under a forward-only capture; "
        "inference must not build a tape (wrap the forward pass in "
        "NoGradGuard)");
  }
}

}  // namespace

/// The recording functions' access to the armed plan's buffer table.
class Recorder {
 public:
  /// Appends one thunk over `out` and `ins` to the armed plan.
  template <class Ins>
  static void record(ThunkOp op, const Tensor& out, const Ins& ins) {
    ExecutionPlan& p = *g_recorder;
    RecordedThunk t;
    static_cast<ThunkOp&>(t) = std::move(op);
    t.ins.reserve(ins.size());
    for (const Tensor& in : ins) {
      t.ins.push_back(operand(p, in, /*read=*/true, /*write=*/false));
    }
    t.out = operand(p, out, t.reads_out(), /*write=*/true);
    p.recorded_.push_back(std::move(t));
  }

 private:
  /// The operand naming `x`'s storage. Storage the plan has not seen gets a
  /// new id, and so does a data pointer the pool recycled into new storage
  /// since the plan last saw it. An unseen buffer that is read is an
  /// external input: the plan keeps the host's tensor.
  static Operand operand(ExecutionPlan& p, const Tensor& x, bool read,
                         bool write) {
    const auto [at, unseen] = p.buffer_at_.try_emplace(x.data(), kNoBuffer);
    if (unseen || !x.has_storage(p.buffers_[at->second].handle)) {
      at->second = static_cast<BufId>(p.buffers_.size());
      ExecutionPlan::Buffer& b = p.buffers_.emplace_back();
      b.handle = x.storage_handle();
      b.numel = x.numel();
      if (read) b.host = x;
    }
    ExecutionPlan::Buffer& b = p.buffers_[at->second];
    if (write && !b.written) {
      b.written = true;
      p.arena_buffers_ += 1;
      p.arena_bytes_ += static_cast<std::size_t>(b.numel) * sizeof(double);
    }
    return Operand{at->second, x.shape()};
  }
};

void ExecutionPlan::replay() {
  run();
  g_replays.fetch_add(1, std::memory_order_relaxed);
}

void ExecutionPlan::run() {
  ensure_bound();
  for (Thunk& t : steps_) run_thunk(t);
}

BufId ExecutionPlan::buffer_of(const Tensor& t) const {
  const auto at = buffer_at_.find(t.data());
  if (at == buffer_at_.end() || !t.has_storage(buffers_[at->second].handle)) {
    return kNoBuffer;
  }
  return at->second;
}

bool ExecutionPlan::host_holds(BufId id) const {
  const Buffer& b = buffers_[id];
  return b.host.has_value() || !b.handle.expired();
}

void ExecutionPlan::ensure_bound() {
  if (!bound_) bind_buffers(take_recorded(), {});
}

std::vector<RecordedThunk> ExecutionPlan::take_recorded() {
  std::vector<RecordedThunk> out = std::move(recorded_);
  recorded_.clear();
  return out;
}

void ExecutionPlan::bind_buffers(std::vector<RecordedThunk> thunks,
                                 const std::vector<BufId>& slots) {
  QPINN_CHECK(!bound_, "bind_buffers: the plan's storage is already bound");
  // Storage per slot, acquired the first time a thunk names the slot.
  std::vector<std::optional<Tensor>> storage(buffers_.size());
  const auto storage_of = [&](BufId id) -> const Tensor& {
    const BufId slot = slots.empty() ? id : slots[id];
    QPINN_CHECK(slot == id || !host_holds(id),
                "bind_buffers: a buffer the host holds must keep its storage");
    std::optional<Tensor>& s = storage[slot];
    if (!s) {
      const Buffer& b = buffers_[slot];
      if (b.host) {
        if (b.handle.use_count() == 1) {
          constant_bytes_ += static_cast<std::size_t>(b.numel) * sizeof(double);
        }
        s = b.host;
      } else {
        s = Tensor::from_handle(b.handle, {b.numel});
        if (!s) s = Tensor::uninitialized({b.numel});
      }
    }
    return *s;
  };
  const auto view = [&](const Operand& o) {
    const Tensor& s = storage_of(o.buf);
    return s.shape() == o.shape ? s : s.reshape(o.shape);
  };

  std::vector<Thunk> bound;
  bound.reserve(thunks.size());
  for (RecordedThunk& r : thunks) {
    std::vector<Tensor> ins;
    ins.reserve(r.ins.size());
    for (const Operand& o : r.ins) ins.push_back(view(o));
    bound.push_back(Thunk{std::move(static_cast<ThunkOp&>(r)), view(r.out),
                          std::move(ins)});
  }
  recorded_ = {};
  buffers_ = {};
  buffer_at_ = {};
  bound_ = true;
  set_thunks(std::move(bound));
}

void ExecutionPlan::set_thunks(std::vector<Thunk> thunks) {
  steps_ = std::move(thunks);
  std::unordered_set<const double*> seen;
  arena_buffers_ = 0;
  arena_bytes_ = 0;
  for (const Thunk& t : steps_) {
    if (seen.insert(t.out.data()).second) {
      arena_buffers_ += 1;
      arena_bytes_ +=
          static_cast<std::size_t>(t.out.numel()) * sizeof(double);
    }
  }
}

std::vector<Thunk> ExecutionPlan::take_thunks() {
  std::vector<Thunk> out = std::move(steps_);
  steps_.clear();
  arena_buffers_ = 0;
  arena_bytes_ = 0;
  return out;
}

void ExecutionPlan::clear() {
  recorded_.clear();
  buffers_.clear();
  buffer_at_.clear();
  steps_.clear();
  bound_ = false;
  arena_buffers_ = 0;
  arena_bytes_ = 0;
  constant_bytes_ = 0;
  pass_stats_ = PassStats{};
}

CaptureScope::CaptureScope(ExecutionPlan& plan, CaptureKind kind)
    : prev_(g_recorder), prev_kind_(g_capture_kind) {
  g_recorder = &plan;
  g_capture_kind = kind;
}

CaptureScope::~CaptureScope() {
  g_recorder = prev_;
  g_capture_kind = prev_kind_;
  g_captured.fetch_add(1, std::memory_order_relaxed);
}

bool capturing() { return g_recorder != nullptr; }

bool capturing_forward_only() {
  return g_recorder != nullptr && g_capture_kind == CaptureKind::kForwardOnly;
}

namespace {

template <class... Ins>
void record(ThunkOp op, const Tensor& out, const Ins&... ins) {
  const std::initializer_list<std::reference_wrapper<const Tensor>> list{
      ins...};
  Recorder::record(std::move(op), out, list);
}

ThunkOp op_of(ThunkKind kind, double scalar = 0.0) {
  ThunkOp op;
  op.kind = kind;
  op.scalar = scalar;
  return op;
}

}  // namespace

void record_unary(const Tensor& out, UnaryKernel k, const Tensor& a) {
  if (g_recorder == nullptr) return;
  ThunkOp op = op_of(ThunkKind::kUnary);
  op.k1 = k;
  record(std::move(op), out, a);
}

void record_unary_scalar(const Tensor& out, UnaryScalarKernel k,
                         const Tensor& a, double s) {
  if (g_recorder == nullptr) return;
  ThunkOp op = op_of(ThunkKind::kUnaryScalar, s);
  op.k1s = k;
  record(std::move(op), out, a);
}

void record_binary(const Tensor& out, BinaryKernel k, const Tensor& a,
                   const Tensor& b) {
  if (g_recorder == nullptr) return;
  ThunkOp op = op_of(ThunkKind::kBinary);
  op.k2 = k;
  record(std::move(op), out, a, b);
}

void record_axpy_acc(const Tensor& dst, double s, const Tensor& src) {
  if (g_recorder == nullptr) return;
  check_not_forward_only();
  record(op_of(ThunkKind::kAxpyAcc, s), dst, src);
}

void record_copy_axpy(const Tensor& dst, const Tensor& first, double s,
                      const Tensor& src) {
  if (g_recorder == nullptr) return;
  check_not_forward_only();
  record(op_of(ThunkKind::kCopyAxpy, s), dst, first, src);
}

void record_zero(const Tensor& out) {
  if (g_recorder == nullptr) return;
  record(op_of(ThunkKind::kZero), out);
}

void record_opaque(const Tensor& out, const std::vector<Tensor>& ins,
                   OpaqueKernel run) {
  if (g_recorder == nullptr) return;
  ThunkOp op = op_of(ThunkKind::kOpaque);
  op.run = std::move(run);
  Recorder::record(std::move(op), out, ins);
}

PlanStats plan_stats() {
  PlanStats s;
  s.plans_captured = g_captured.load(std::memory_order_relaxed);
  s.replays = g_replays.load(std::memory_order_relaxed);
  s.fallbacks = g_fallbacks.load(std::memory_order_relaxed);
  s.plans_optimized = g_optimized.load(std::memory_order_relaxed);
  s.thunks_eliminated = g_thunks_eliminated.load(std::memory_order_relaxed);
  s.arena_bytes_saved = g_arena_bytes_saved.load(std::memory_order_relaxed);
  return s;
}

void reset_plan_stats() {
  g_captured.store(0, std::memory_order_relaxed);
  g_replays.store(0, std::memory_order_relaxed);
  g_fallbacks.store(0, std::memory_order_relaxed);
  g_optimized.store(0, std::memory_order_relaxed);
  g_thunks_eliminated.store(0, std::memory_order_relaxed);
  g_arena_bytes_saved.store(0, std::memory_order_relaxed);
}

void count_fallback() { g_fallbacks.fetch_add(1, std::memory_order_relaxed); }

void count_optimized(const PassStats& s) {
  g_optimized.fetch_add(1, std::memory_order_relaxed);
  g_thunks_eliminated.fetch_add(s.thunks_before - s.thunks_after,
                                std::memory_order_relaxed);
  g_arena_bytes_saved.fetch_add(s.arena_bytes_before - s.arena_bytes_after,
                                std::memory_order_relaxed);
}

bool graph_env_enabled() {
  std::string raw = env_string("QPINN_GRAPH");
  std::transform(raw.begin(), raw.end(), raw.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (raw.empty() || raw == "on" || raw == "1" || raw == "true" ||
      raw == "yes") {
    return true;
  }
  if (raw == "off" || raw == "0" || raw == "false" || raw == "no") {
    return false;
  }
  throw ConfigError("QPINN_GRAPH must be on/off (got \"" + raw + "\")");
}

}  // namespace qpinn::autodiff::plan
