#include "autodiff/precision.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autodiff/plan_passes.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_f32.hpp"
#include "tensor/storage_pool.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn::autodiff {

namespace {

namespace k = qpinn::kernels;
namespace f32 = qpinn::kernels_f32;
using plan::Thunk;
using plan::ThunkKind;

Precision parse_precision_env() {
  const std::string v = env_string("QPINN_PRECISION");
  if (v.empty() || v == "fp64") return Precision::kFp64;
  if (v == "mixed") return Precision::kMixed;
  throw ConfigError("unknown QPINN_PRECISION value '" + v +
                    "' (expected fp64|mixed)");
}

std::atomic<int> g_override{-1};

}  // namespace

Precision precision_mode() {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<Precision>(o);
  static const Precision from_env = parse_precision_env();
  return from_env;
}

void set_precision_mode(Precision p) {
  g_override.store(static_cast<int>(p), std::memory_order_relaxed);
}

const char* precision_name(Precision p) {
  return p == Precision::kMixed ? "mixed" : "fp64";
}

namespace {

/// fp32 mirror of one pinned fp64 arena buffer. The pooled storage is
/// kept alive by an ownership anchor attached to the rewritten plan (see
/// Demoter::run); `p` is the stable raw base the closures compute with.
struct Shadow {
  std::shared_ptr<std::vector<float>> buf;
  float* p = nullptr;
};

/// Where the current value of one arena buffer lives during replay.
/// Walk order equals replay order, so tracking this during the single
/// forward walk is exact even when the rebind pass mapped several
/// logical tensors onto one slot: every reuse begins with a full
/// overwrite, which resets both flags below.
struct Residency {
  bool v64 = true;   ///< fp64 buffer holds the current value
  bool v32 = false;  ///< fp32 shadow holds the current value
  Shadow shadow;     ///< allocated lazily on first fp32 use
};

/// The demotion walk over one plan's thunk array. Emitted closures
/// capture only raw pointers and immediates: the fp64 buffers stay
/// pinned by each thunk's out/ins tensors, and the fp32 shadows by the
/// ownership anchor installed at the end of run().
class Demoter {
 public:
  explicit Demoter(std::vector<Thunk> thunks) : in_(std::move(thunks)) {
    stats_.thunks_before = in_.size();
    // Arena reuse can bind logical tensors of different sizes to one
    // buffer; the shadow must cover the largest of them.
    for (const Thunk& t : in_) {
      note_extent(t.out);
      for (const Tensor& x : t.ins) note_extent(x);
    }
  }

  std::vector<Thunk> run(const std::vector<Tensor>& outputs) {
    for (Thunk& t : in_) visit(t);
    for (const Tensor& o : outputs) {
      auto it = res_.find(o.data());
      if (it != res_.end() && !it->second.v64) upcast(o, it->second);
    }
    anchor_shadows();
    return std::move(out_);
  }

  const DemoteStats& stats() const { return stats_; }

 private:
  void note_extent(const Tensor& t) {
    if (t.numel() <= 0) return;
    std::size_t& m = extent_[t.data()];
    m = std::max(m, static_cast<std::size_t>(t.numel()));
  }

  Residency& residency(const Tensor& t) { return res_[t.data()]; }

  /// The shadow for `t`'s buffer, allocating (uninitialized) on first use.
  Shadow& shadow(const Tensor& t) {
    Residency& r = residency(t);
    if (r.shadow.p == nullptr) {
      const std::size_t n = extent_[t.data()];
      r.shadow.buf = StoragePool::instance().acquire_f32(n, /*zero=*/false);
      r.shadow.p = r.shadow.buf->data();
      ++stats_.shadow_buffers;
      stats_.shadow_bytes += n * sizeof(float);
    }
    return r.shadow;
  }

  void emit(const Tensor& out, std::vector<Tensor> ins,
            plan::OpaqueKernel run) {
    Thunk t;
    t.kind = ThunkKind::kOpaque;
    t.out = out;
    t.ins = std::move(ins);
    t.run = std::move(run);
    out_.push_back(std::move(t));
    last_emitted_ = out_.size() - 1;
  }

  /// Rewrites the last emitted closure to co-own every shadow buffer, so
  /// the shadows live exactly as long as the rewritten thunk array.
  void anchor_shadows() {
    if (stats_.shadow_buffers == 0) return;
    std::vector<std::shared_ptr<std::vector<float>>> owned;
    owned.reserve(stats_.shadow_buffers);
    for (const auto& [ptr, r] : res_) {
      if (r.shadow.buf) owned.push_back(r.shadow.buf);
    }
    Thunk& t = out_[last_emitted_];
    t.run = [owned = std::move(owned), fn = std::move(t.run)](
                Tensor& out, const std::vector<Tensor>& ins) {
      (void)owned;
      fn(out, ins);
    };
  }

  void downcast(const Tensor& t, Residency& r) {
    float* dst = shadow(t).p;
    const double* src = t.data();
    const auto n = static_cast<std::size_t>(t.numel());
    emit(t, {t}, [dst, src, n](auto&&...) { f32::downcast(dst, src, n); });
    r.v32 = true;
    ++stats_.downcasts;
  }

  void upcast(const Tensor& t, Residency& r) {
    const float* src = shadow(t).p;
    double* dst = const_cast<Tensor&>(t).data();
    const auto n = static_cast<std::size_t>(t.numel());
    emit(t, {t}, [dst, src, n](auto&&...) { f32::upcast(dst, src, n); });
    r.v64 = true;
    ++stats_.upcasts;
  }

  /// fp32 base for reading `t`; inserts a downcast when the shadow is
  /// stale. This is the downcast-on-publish point: a parameter the fp64
  /// optimizer rewrites between replays is v64-resident forever (nothing
  /// in the plan writes it), so its downcast thunk re-runs every replay.
  const float* read_f32(const Tensor& t) {
    Residency& r = residency(t);
    Shadow& s = shadow(t);
    if (!r.v32) downcast(t, r);
    return s.p;
  }

  /// fp64 base for reading `t`; inserts an upcast when the fp64 buffer
  /// is stale.
  const double* read_f64(const Tensor& t) {
    Residency& r = residency(t);
    if (!r.v64) upcast(t, r);
    return t.data();
  }

  /// fp32 base for fully overwriting `t` (no conversion inserted).
  float* write_f32(const Tensor& t) { return shadow(t).p; }

  void wrote_f32(const Tensor& t) {
    Residency& r = residency(t);
    r.v64 = false;
    r.v32 = true;
    ++stats_.demoted;
  }

  void wrote_f64_reduction(const Tensor& t) {
    Residency& r = residency(t);
    r.v64 = true;
    r.v32 = false;
    ++stats_.demoted;
  }

  /// Leaves the thunk on its fp64 kernel: restore fp64 residency of
  /// every operand, then forward the original thunk untouched.
  void keep(Thunk& t) {
    for (const Tensor& x : t.ins) read_f64(x);
    if (t.reads_out()) read_f64(t.out);
    Residency& r = residency(t.out);
    r.v64 = true;
    r.v32 = false;
    ++stats_.kept_fp64;
    out_.push_back(std::move(t));
  }

  void visit(Thunk& t) {
    switch (t.kind) {
      case ThunkKind::kUnary:
        if (!try_unary(t)) keep(t);
        break;
      case ThunkKind::kUnaryScalar:
        if (!try_unary_scalar(t)) keep(t);
        break;
      case ThunkKind::kBinary:
        if (!try_binary(t)) keep(t);
        break;
      case ThunkKind::kAxpyAcc: {
        // out += s * src, reading the shadow's prior contents.
        float* op = const_cast<float*>(read_f32(t.out));
        const float* sp = read_f32(t.ins[0]);
        const auto n = static_cast<std::size_t>(t.out.numel());
        const double s = t.scalar;
        emit(t.out, t.ins,
             [op, s, sp, n](auto&&...) { f32::axpy(op, s, sp, n); });
        wrote_f32(t.out);
        break;
      }
      case ThunkKind::kCopyAxpy: {
        const float* fp = read_f32(t.ins[0]);
        const float* sp = read_f32(t.ins[1]);
        float* op = write_f32(t.out);
        const auto n = static_cast<std::size_t>(t.out.numel());
        const double s = t.scalar;
        emit(t.out, t.ins, [op, fp, s, sp, n](auto&&...) {
          f32::copy(op, fp, n);
          f32::axpy(op, s, sp, n);
        });
        wrote_f32(t.out);
        break;
      }
      case ThunkKind::kZero: {
        float* op = write_f32(t.out);
        const auto n = static_cast<std::size_t>(t.out.numel());
        emit(t.out, {}, [op, n](auto&&...) { f32::fill_zero(op, n); });
        wrote_f32(t.out);
        break;
      }
      case ThunkKind::kOpaque:
        keep(t);
        break;
    }
  }

  bool try_unary(Thunk& t) {
    const Tensor& a = t.ins[0];
    const Tensor& o = t.out;
    const auto n = static_cast<std::size_t>(a.numel());

    void (*fn)(const float*, float*, std::size_t) = nullptr;
    if (t.k1 == &k::neg_into) fn = &f32::neg;
    else if (t.k1 == &k::tanh_into) fn = &f32::tanh;
    else if (t.k1 == &k::square_into) fn = &f32::square;
    else if (t.k1 == &k::sqrt_into) fn = &f32::sqrt;
    else if (t.k1 == &k::reciprocal_into) fn = &f32::reciprocal;
    else if (t.k1 == &k::abs_into) fn = &f32::abs;
    else if (t.k1 == &k::sign_into) fn = &f32::sign;
    else if (t.k1 == &k::exp_into) fn = &f32::exp;
    else if (t.k1 == &k::log_into) fn = &f32::log;
    else if (t.k1 == &k::sin_into) fn = &f32::sin;
    else if (t.k1 == &k::cos_into) fn = &f32::cos;
    if (fn != nullptr) {
      const float* ap = read_f32(a);
      float* op = write_f32(o);
      emit(o, t.ins, [fn, ap, op, n](auto&&...) { fn(ap, op, n); });
      wrote_f32(o);
      return true;
    }

    if (t.k1 == &k::transpose_into) {
      const float* ap = read_f32(a);
      float* op = write_f32(o);
      const std::int64_t rows = a.rows(), cols = a.cols();
      emit(o, t.ins, [ap, op, rows, cols](auto&&...) {
        f32::transpose(ap, op, rows, cols);
      });
      wrote_f32(o);
      return true;
    }

    if (t.k1 == &k::sum_to_into || t.k1 == &k::broadcast_to_into) {
      if (a.same_shape(o)) {
        const float* ap = read_f32(a);
        float* op = write_f32(o);
        emit(o, t.ins, [ap, op, n](auto&&...) { f32::copy(op, ap, n); });
        wrote_f32(o);
        return true;
      }
      if (t.k1 == &k::sum_to_into && is_row_vector_of(o.shape(), a.shape())) {
        const float* ap = read_f32(a);
        float* op = write_f32(o);
        const auto rows = static_cast<std::size_t>(a.rows());
        const auto cols = static_cast<std::size_t>(a.cols());
        emit(o, t.ins, [ap, op, rows, cols](auto&&...) {
          f32::sum_to_rows(ap, op, rows, cols);
        });
        wrote_f32(o);
        return true;
      }
      if (t.k1 == &k::broadcast_to_into && a.numel() == 1) {
        // The broadcast value is read from the fp64 buffer at replay
        // time (scalars stay fp64-resident across demotion).
        const double* av = read_f64(a);
        float* op = write_f32(o);
        const auto on = static_cast<std::size_t>(o.numel());
        emit(o, t.ins,
             [av, op, on](auto&&...) { f32::fill_value(op, av[0], on); });
        wrote_f32(o);
        return true;
      }
      return false;
    }

    if (t.k1 == &k::sum_all_into || t.k1 == &k::square_sum_all_into) {
      const bool square = t.k1 == &k::square_sum_all_into;
      const float* ap = read_f32(a);
      double* po = const_cast<Tensor&>(o).data();
      emit(o, t.ins, [square, ap, po, n](auto&&...) {
        po[0] = square ? f32::square_sum(ap, n) : f32::sum(ap, n);
      });
      wrote_f64_reduction(o);
      return true;
    }

    return false;
  }

  bool try_unary_scalar(Thunk& t) {
    const Tensor& a = t.ins[0];
    const Tensor& o = t.out;
    const auto n = static_cast<std::size_t>(a.numel());
    const double s = t.scalar;

    void (*fn)(const float*, double, float*, std::size_t) = nullptr;
    if (t.k1s == &k::scale_into) fn = &f32::scale;
    else if (t.k1s == &k::add_scalar_into) fn = &f32::add_scalar;
    else if (t.k1s == &k::pow_scalar_into) fn = &f32::pow_scalar;
    if (fn == nullptr) return false;

    const float* ap = read_f32(a);
    float* op = write_f32(o);
    emit(o, t.ins, [fn, ap, s, op, n](auto&&...) { fn(ap, s, op, n); });
    wrote_f32(o);
    return true;
  }

  bool try_binary(Thunk& t) {
    const Tensor& a = t.ins[0];
    const Tensor& b = t.ins[1];
    const Tensor& o = t.out;

    if (t.k2 == &k::matmul_into || t.k2 == &k::matmul_tn_into ||
        t.k2 == &k::matmul_nt_into) {
      // Extents as each executor takes them: (n, k, m) for out[n,m].
      void (*fn)(const float*, const float*, float*, std::int64_t,
                 std::int64_t, std::int64_t) = &f32::matmul;
      std::int64_t kk = a.cols();
      if (t.k2 == &k::matmul_tn_into) {
        fn = &f32::matmul_tn;
        kk = a.rows();
      } else if (t.k2 == &k::matmul_nt_into) {
        fn = &f32::matmul_nt;
      }
      const float* ap = read_f32(a);
      const float* bp = read_f32(b);
      float* op = write_f32(o);
      const std::int64_t rows = o.rows(), m = o.cols();
      emit(o, t.ins, [fn, ap, bp, op, rows, kk, m](auto&&...) {
        fn(ap, bp, op, rows, kk, m);
      });
      wrote_f32(o);
      return true;
    }

    if (t.k2 == &k::bias_tanh_into) {
      if (!is_row_vector_of(b.shape(), a.shape())) return false;
      const float* ap = read_f32(a);
      const float* bp = read_f32(b);
      float* op = write_f32(o);
      const auto rows = static_cast<std::size_t>(a.rows());
      const auto cols = static_cast<std::size_t>(a.cols());
      emit(o, t.ins, [ap, bp, op, rows, cols](auto&&...) {
        f32::bias_tanh(ap, bp, op, rows, cols);
      });
      wrote_f32(o);
      return true;
    }

    if (t.k2 == &k::tanh_grad_into) {
      const float* gp = read_f32(a);
      const float* tp = read_f32(b);
      float* op = write_f32(o);
      const auto n = static_cast<std::size_t>(o.numel());
      emit(o, t.ins,
           [gp, tp, op, n](auto&&...) { f32::tanh_grad(gp, tp, op, n); });
      wrote_f32(o);
      return true;
    }

    if (t.k2 == &k::weighted_square_sum_all_into) {
      // ins are (weights, residual); weights are either same-shape or a
      // per-row column vector against a rank-2 residual.
      const bool roww = !a.same_shape(b);
      if (roww && !is_column_vector_of(a.shape(), b.shape())) return false;
      const float* wp = read_f32(a);
      const float* ap = read_f32(b);
      double* po = const_cast<Tensor&>(o).data();
      const auto n = static_cast<std::size_t>(b.numel());
      const auto rows = static_cast<std::size_t>(roww ? b.rows() : 0);
      const auto cols = static_cast<std::size_t>(roww ? b.cols() : 0);
      emit(o, t.ins, [roww, wp, ap, po, n, rows, cols](auto&&...) {
        po[0] = roww ? f32::weighted_square_sum_rows(wp, ap, rows, cols)
                     : f32::weighted_square_sum(wp, ap, n);
      });
      wrote_f64_reduction(o);
      return true;
    }

    simd::BinOp bop;
    if (t.k2 == &k::add_into) bop = simd::kAdd;
    else if (t.k2 == &k::sub_into) bop = simd::kSub;
    else if (t.k2 == &k::mul_into) bop = simd::kMul;
    else if (t.k2 == &k::div_into) bop = simd::kDiv;
    else return false;

    if (a.same_shape(b)) {
      const float* ap = read_f32(a);
      const float* bp = read_f32(b);
      float* op = write_f32(o);
      const auto n = static_cast<std::size_t>(o.numel());
      emit(o, t.ins, [bop, ap, bp, op, n](auto&&...) {
        f32::bin_same(bop, ap, bp, op, n);
      });
      wrote_f32(o);
      return true;
    }
    if (b.numel() == 1 && a.same_shape(o)) {
      const float* ap = read_f32(a);
      const double* bv = read_f64(b);
      float* op = write_f32(o);
      const auto n = static_cast<std::size_t>(o.numel());
      emit(o, t.ins, [bop, ap, bv, op, n](auto&&...) {
        f32::bin_scalar_rhs(bop, ap, bv[0], op, n);
      });
      wrote_f32(o);
      return true;
    }
    if (a.numel() == 1 && b.same_shape(o)) {
      const double* av = read_f64(a);
      const float* bp = read_f32(b);
      float* op = write_f32(o);
      const auto n = static_cast<std::size_t>(o.numel());
      emit(o, t.ins, [bop, av, bp, op, n](auto&&...) {
        f32::bin_scalar_lhs(bop, av[0], bp, op, n);
      });
      wrote_f32(o);
      return true;
    }
    if (is_row_vector_of(b.shape(), a.shape())) {
      const float* ap = read_f32(a);
      const float* bp = read_f32(b);
      float* op = write_f32(o);
      const auto rows = static_cast<std::size_t>(o.rows());
      const auto cols = static_cast<std::size_t>(o.cols());
      emit(o, t.ins, [bop, ap, bp, op, rows, cols](auto&&...) {
        f32::bin_row(bop, ap, bp, op, rows, cols);
      });
      wrote_f32(o);
      return true;
    }
    return false;
  }

  std::vector<Thunk> in_;
  std::vector<Thunk> out_;
  std::size_t last_emitted_ = 0;
  std::unordered_map<const double*, std::size_t> extent_;
  std::unordered_map<const double*, Residency> res_;
  DemoteStats stats_;
};

}  // namespace

DemoteStats demote_plan(plan::ExecutionPlan& plan,
                        const std::vector<Tensor>& outputs) {
  plan.ensure_bound();
  Demoter d(plan.take_thunks());
  plan.set_thunks(d.run(outputs));
  return d.stats();
}

FinalizeStats finalize_plan(plan::ExecutionPlan& plan,
                            const std::vector<Tensor>& outputs) {
  FinalizeStats stats;
  // The passes run over the recorded buffer ids and bind storage last;
  // demotion rewrites bound thunks, so it binds a plan the passes skipped.
  if (plan::plan_opt_env_enabled()) {
    stats.passes = plan::optimize_plan(plan, outputs);
  }
  if (precision_mode() == Precision::kMixed) {
    stats.demotion = demote_plan(plan, outputs);
  }
  return stats;
}

}  // namespace qpinn::autodiff
