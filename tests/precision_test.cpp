// Mixed-precision contract tests (autodiff/precision.hpp, tensor/kernels_f32.hpp).
//
// Three layers of the fp32-compute / fp64-master design are pinned here:
//
//   1. kernels_f32: downcast/upcast are the sole precision boundary and
//      behave exactly like the builtin conversions; the fp32 executors
//      track their fp64 counterparts within float tolerance and the
//      reductions accumulate in double.
//   2. demote_plan: a captured loss+gradient plan replayed through the
//      fp32 shadow world agrees with eager fp64 within documented bounds
//      (1e-4 relative on gradients for the op sweep below) — on every
//      selectable SIMD variant.
//   3. Trainer: a mixed training run reaches the same physics as the fp64
//      run within documented bounds (see DESIGN.md "Mixed precision"),
//      and its checkpoints hold the fp64 master weights bit-for-bit — a
//      resume from a mixed run starts from exactly the doubles Adam wrote,
//      never from anything that round-tripped through float.
//
// The L-BFGS second stage (TrainConfig::second_stage) rides along: it is
// specified to run eagerly in fp64 regardless of QPINN_PRECISION, so its
// refinement tests live here with the precision suite.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_f32.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qpinn::core {
namespace {

namespace ad = qpinn::autodiff;
namespace plan = qpinn::autodiff::plan;
namespace f32 = qpinn::kernels_f32;
namespace simd = qpinn::simd;

/// Pins the process-wide precision mode for one test and restores the
/// previous mode on exit (assertion failures included).
class PrecisionGuard {
 public:
  explicit PrecisionGuard(ad::Precision pin) : saved_(ad::precision_mode()) {
    ad::set_precision_mode(pin);
  }
  ~PrecisionGuard() { ad::set_precision_mode(saved_); }

 private:
  ad::Precision saved_;
};

TrainConfig tiny_config(std::int64_t epochs) {
  TrainConfig config = default_train_config(epochs, /*seed=*/7);
  config.resample_every = 0;
  config.sampling.n_interior_x = 10;
  config.sampling.n_interior_t = 10;
  config.sampling.n_initial = 16;
  config.sampling.n_boundary = 8;
  config.metric_nx = 16;
  config.metric_nt = 8;
  return config;
}

std::shared_ptr<FieldModel> tiny_model(const SchrodingerProblem& problem,
                                       std::uint64_t seed) {
  FieldModelConfig config = default_model_config(problem, seed);
  config.hidden = {10, 10};
  config.fourier = nn::FourierConfig{4, 1.0};
  config.hard_ic = HardIc{problem.config().initial, problem.domain().t_lo};
  return make_field_model(config);
}

// ---- mode plumbing ---------------------------------------------------------

TEST(PrecisionMode, OverrideWinsAndNamesAreStable) {
  PrecisionGuard guard(ad::Precision::kFp64);
  EXPECT_EQ(ad::precision_mode(), ad::Precision::kFp64);
  ad::set_precision_mode(ad::Precision::kMixed);
  EXPECT_EQ(ad::precision_mode(), ad::Precision::kMixed);
  EXPECT_STREQ(ad::precision_name(ad::Precision::kFp64), "fp64");
  EXPECT_STREQ(ad::precision_name(ad::Precision::kMixed), "mixed");
}

// ---- the precision boundary ------------------------------------------------

TEST(KernelsF32, DowncastMatchesBuiltinConversionAndUpcastIsExact) {
  Rng rng(31);
  const std::size_t n = 257;  // not a multiple of any vector width
  std::vector<double> src(n);
  for (double& x : src) x = 1e3 * (rng.uniform() - 0.5);
  src[0] = 0.0;
  src[1] = -0.0;
  src[2] = 1.0 + 1e-12;  // loses bits in float: the interesting case
  std::vector<float> shadow(n);
  f32::downcast(shadow.data(), src.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(shadow[i], static_cast<float>(src[i])) << "lane " << i;
  }
  std::vector<double> back(n);
  f32::upcast(back.data(), shadow.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    // Every float is exactly representable as a double.
    ASSERT_EQ(back[i], static_cast<double>(shadow[i])) << "lane " << i;
  }
  // The round trip is lossy exactly where doubles carry more bits.
  EXPECT_EQ(back[0], 0.0);
  EXPECT_NE(back[2], src[2]);
  EXPECT_NEAR(back[2], src[2], 1e-7);
}

TEST(KernelsF32, ExecutorsTrackFp64KernelsWithinFloatTolerance) {
  Rng rng(47);
  const std::size_t rows = 13, cols = 17, n = rows * cols;
  std::vector<double> a64(n), b64(n), bias64(cols);
  for (double& x : a64) x = 2.0 * (rng.uniform() - 0.5);
  for (double& x : b64) x = 0.5 + 2.0 * rng.uniform();  // away from 0
  for (double& x : bias64) x = rng.uniform() - 0.5;
  std::vector<float> a(n), b(n), bias(cols), out(n);
  f32::downcast(a.data(), a64.data(), n);
  f32::downcast(b.data(), b64.data(), n);
  f32::downcast(bias.data(), bias64.data(), cols);

  const auto expect_close = [&](const char* what, double want,
                                std::size_t i) {
    ASSERT_NEAR(out[i], want, 1e-5 * std::max(1.0, std::abs(want)))
        << what << " lane " << i;
  };

  f32::bin_same(simd::kAdd, a.data(), b.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) expect_close("add", a64[i] + b64[i], i);
  f32::bin_same(simd::kDiv, a.data(), b.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) expect_close("div", a64[i] / b64[i], i);
  f32::bias_tanh(a.data(), bias.data(), out.data(), rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      expect_close("bias_tanh", std::tanh(a64[r * cols + c] + bias64[c]),
                   r * cols + c);
    }
  }
  f32::tanh(a.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    expect_close("tanh", std::tanh(a64[i]), i);
  }
  f32::exp(a.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    expect_close("exp", std::exp(a64[i]), i);
  }

  // Reductions return double and must track the fp64 value to float
  // accuracy despite fp32 operands.
  double want = 0.0;
  for (std::size_t i = 0; i < n; ++i) want += a64[i] * a64[i];
  EXPECT_NEAR(f32::square_sum(a.data(), n), want, 1e-4 * want);
  want = 0.0;
  for (std::size_t i = 0; i < n; ++i) want += b64[i] * a64[i] * a64[i];
  EXPECT_NEAR(f32::weighted_square_sum(b.data(), a.data(), n), want,
              1e-4 * std::abs(want));

  // Matmul: (rows,cols) x (cols,rows).
  std::vector<float> mm(rows * rows);
  f32::matmul(a.data(), b.data(), mm.data(), rows, cols, rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < rows; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < cols; ++k) {
        acc += a64[i * cols + k] * b64[k * rows + j];
      }
      ASSERT_NEAR(mm[i * rows + j], acc, 1e-4 * std::max(1.0, std::abs(acc)))
          << "matmul (" << i << "," << j << ")";
    }
  }
}

/// A float buffer and the fp64 tensor holding exactly its values, so an
/// executor and its fp64 kernel see identical operands and differ only in
/// compute rounding.
struct F32Operand {
  std::vector<float> f;
  Tensor d;
};

F32Operand f32_operand(Shape shape, Rng& rng, double lo, double hi) {
  const Tensor src = Tensor::rand(std::move(shape), rng, lo, hi);
  F32Operand op{std::vector<float>(static_cast<std::size_t>(src.numel())),
                Tensor::uninitialized(src.shape())};
  f32::downcast(op.f.data(), src.data(), op.f.size());
  f32::upcast(op.d.data(), op.f.data(), op.f.size());
  return op;
}

/// Every lane of `got` within float tolerance of `want`; `scale` widens the
/// absolute floor for sums of many fp32 terms.
void expect_tracks(const std::vector<float>& got, const Tensor& want,
                   const std::string& what, double scale = 1.0) {
  ASSERT_EQ(static_cast<std::int64_t>(got.size()), want.numel()) << what;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(got[static_cast<std::size_t>(i)], want[i],
                1e-5 * std::max(scale, std::abs(want[i])))
        << what << " lane " << i;
  }
}

struct UnaryExecutor {
  const char* name;
  void (*exec)(const float*, float*, std::size_t);
  void (*ref)(Tensor&, const Tensor&);
  bool positive;  ///< needs a positive operand (log, sqrt)
};

struct ScalarExecutor {
  const char* name;
  void (*exec)(const float*, double, float*, std::size_t);
  void (*ref)(Tensor&, const Tensor&, double);
  double s;
};

struct BinaryExecutor {
  simd::BinOp op;
  void (*ref)(Tensor&, const Tensor&, const Tensor&);
};

TEST(KernelsF32, EveryDemotedExecutorTracksItsFp64IntoUnderEveryIsa) {
  namespace k = qpinn::kernels;
  const UnaryExecutor unaries[] = {
      {"neg", &f32::neg, &k::neg_into, false},
      {"tanh", &f32::tanh, &k::tanh_into, false},
      {"square", &f32::square, &k::square_into, false},
      {"sqrt", &f32::sqrt, &k::sqrt_into, true},
      {"reciprocal", &f32::reciprocal, &k::reciprocal_into, true},
      {"relu", &f32::relu, &k::relu_into, false},
      {"abs", &f32::abs, &k::abs_into, false},
      {"step", &f32::step, &k::step_into, false},
      {"sign", &f32::sign, &k::sign_into, false},
      {"exp", &f32::exp, &k::exp_into, false},
      {"log", &f32::log, &k::log_into, true},
      {"sin", &f32::sin, &k::sin_into, false},
      {"cos", &f32::cos, &k::cos_into, false},
      {"sigmoid", &f32::sigmoid, &k::sigmoid_into, false},
      {"softplus", &f32::softplus, &k::softplus_into, false}};
  const ScalarExecutor scalars[] = {
      {"scale", &f32::scale, &k::scale_into, -1.75},
      {"add_scalar", &f32::add_scalar, &k::add_scalar_into, 0.375},
      {"pow_scalar", &f32::pow_scalar, &k::pow_scalar_into, 2.5}};
  const BinaryExecutor binaries[] = {{simd::kAdd, &k::add_into},
                                     {simd::kSub, &k::sub_into},
                                     {simd::kMul, &k::mul_into},
                                     {simd::kDiv, &k::div_into}};
  // Exactly representable in float, so both sides use the same immediate.
  const double s = 0.75;

  const simd::Isa original = simd::active_isa();
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    Rng rng(59 + static_cast<std::uint64_t>(isa));
    for (const auto& [rows, cols] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {1, 1}, {1, 3}, {1, 257}, {13, 17}, {70, 65}}) {
      const std::string at = std::string(simd::isa_name(isa)) + " " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols) + " ";
      const auto n = static_cast<std::size_t>(rows * cols);
      const F32Operand a = f32_operand({rows, cols}, rng, -2.0, 2.0);
      const F32Operand b = f32_operand({rows, cols}, rng, -1.0, 1.0);
      const F32Operand pos = f32_operand({rows, cols}, rng, 0.5, 2.0);
      const F32Operand row = f32_operand({cols}, rng, 0.5, 2.0);
      const F32Operand w = f32_operand({rows, 1}, rng, 0.5, 2.0);
      std::vector<float> out(n);
      Tensor want = Tensor::uninitialized({rows, cols});

      for (const UnaryExecutor& u : unaries) {
        const F32Operand& x = u.positive ? pos : a;
        u.exec(x.f.data(), out.data(), n);
        u.ref(want, x.d);
        expect_tracks(out, want, at + u.name);
      }
      for (const ScalarExecutor& u : scalars) {
        const F32Operand& x = std::string(u.name) == "pow_scalar" ? pos : a;
        u.exec(x.f.data(), u.s, out.data(), n);
        u.ref(want, x.d, u.s);
        expect_tracks(out, want, at + u.name);
      }
      for (const BinaryExecutor& bin : binaries) {
        const std::string op = at + "op " + std::to_string(bin.op) + " ";
        f32::bin_same(bin.op, a.f.data(), pos.f.data(), out.data(), n);
        bin.ref(want, a.d, pos.d);
        expect_tracks(out, want, op + "bin_same");
        f32::bin_row(bin.op, a.f.data(), row.f.data(), out.data(),
                     static_cast<std::size_t>(rows),
                     static_cast<std::size_t>(cols));
        bin.ref(want, a.d, row.d);
        expect_tracks(out, want, op + "bin_row");
        f32::bin_scalar_rhs(bin.op, a.f.data(), s, out.data(), n);
        bin.ref(want, a.d, Tensor::scalar(s));
        expect_tracks(out, want, op + "bin_scalar_rhs");
        f32::bin_scalar_lhs(bin.op, s, pos.f.data(), out.data(), n);
        bin.ref(want, Tensor::scalar(s), pos.d);
        expect_tracks(out, want, op + "bin_scalar_lhs");
      }

      f32::bias_sin(a.f.data(), row.f.data(), out.data(),
                    static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(cols));
      k::bias_sin_into(want, a.d, row.d);
      expect_tracks(out, want, at + "bias_sin");
      f32::tanh_grad(a.f.data(), b.f.data(), out.data(), n);
      k::tanh_grad_into(want, a.d, b.d);
      expect_tracks(out, want, at + "tanh_grad");
      f32::fill_value(out.data(), s, n);
      k::broadcast_to_into(want, Tensor::scalar(s));
      expect_tracks(out, want, at + "fill_value");
      out = b.f;
      f32::axpy(out.data(), s, a.f.data(), n);
      Tensor acc = b.d.clone();
      k::axpy_inplace(acc, s, a.d);
      expect_tracks(out, acc, at + "axpy");

      Tensor want_t = Tensor::uninitialized({cols, rows});
      f32::transpose(a.f.data(), out.data(), rows, cols);
      k::transpose_into(want_t, a.d);
      expect_tracks(out, want_t, at + "transpose");

      std::vector<float> collapsed(static_cast<std::size_t>(cols));
      Tensor want_rows = Tensor::uninitialized({cols});
      f32::sum_to_rows(a.f.data(), collapsed.data(),
                       static_cast<std::size_t>(rows),
                       static_cast<std::size_t>(cols));
      k::sum_to_into(want_rows, a.d);
      expect_tracks(collapsed, want_rows, at + "sum_to_rows",
                    static_cast<double>(rows));

      Tensor total = Tensor::scalar(0.0);
      k::sum_all_into(total, a.d);
      EXPECT_NEAR(f32::sum(a.f.data(), n), total.item(),
                  1e-9 * static_cast<double>(n))
          << at << "sum";
      k::weighted_square_sum_all_into(total, w.d, a.d);
      EXPECT_NEAR(f32::weighted_square_sum_rows(
                      w.f.data(), a.f.data(), static_cast<std::size_t>(rows),
                      static_cast<std::size_t>(cols)),
                  total.item(), 1e-9 * static_cast<double>(n))
          << at << "weighted_square_sum_rows";
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
}

// ---- cross-precision gradcheck sweep ---------------------------------------

struct SweepCase {
  std::string name;
  Shape shape;
  double lo, hi;
  std::function<ad::Variable(const ad::Variable&)> fn;
};

/// Every demotable kernel family through a loss-shaped scalar: capture the
/// fp64 plan for loss+grad, demote it, and the fp32 replay must agree with
/// an eager fp64 recomputation at fresh inputs within 1e-4 relative — the
/// documented gradient tolerance of mixed mode.
std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  const Shape mat{6, 5};
  cases.push_back({"tanh", mat, -2.0, 2.0, [](const ad::Variable& x) {
                     return ad::sum_all(ad::tanh(x));
                   }});
  cases.push_back({"sigmoid-softplus", mat, -2.0, 2.0,
                   [](const ad::Variable& x) {
                     return ad::sum_all(ad::softplus(ad::sigmoid(x)));
                   }});
  cases.push_back({"exp-log-sqrt", mat, 0.5, 2.0, [](const ad::Variable& x) {
                     return ad::sum_all(ad::log(ad::exp(ad::sqrt(x))));
                   }});
  cases.push_back({"sin-cos-mul", mat, -2.0, 2.0, [](const ad::Variable& x) {
                     return ad::sum_all(ad::mul(ad::sin(x), ad::cos(x)));
                   }});
  cases.push_back({"square-sum", mat, -2.0, 2.0, [](const ad::Variable& x) {
                     return ad::square_sum(x);
                   }});
  cases.push_back({"matmul-mse", {6, 6}, -1.0, 1.0,
                   [](const ad::Variable& x) {
                     return ad::mse(ad::matmul(x, ad::transpose(x)));
                   }});
  cases.push_back({"bias-tanh-row", mat, -2.0, 2.0,
                   [](const ad::Variable& x) {
                     const ad::Variable bias = ad::Variable::constant(
                         Tensor::from_vector({0.1, -0.2, 0.3, -0.4, 0.5},
                                             {1, 5}));
                     return ad::sum_all(ad::bias_tanh(x, bias));
                   }});
  cases.push_back({"weighted-square-sum", mat, -2.0, 2.0,
                   [](const ad::Variable& x) {
                     const ad::Variable w = ad::Variable::constant(
                         Tensor::from_vector({0.5, 1.0, 1.5, 2.0, 2.5, 3.0},
                                             {6, 1}));
                     return ad::weighted_square_sum(w, x);
                   }});
  return cases;
}

void run_sweep_case(const SweepCase& c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::rand(c.shape, rng, c.lo, c.hi);

  plan::ExecutionPlan p;
  Tensor loss_buf, grad_buf;
  {
    plan::CaptureScope scope(p);
    const ad::Variable xv = ad::Variable::leaf(x);
    const ad::Variable loss = c.fn(xv);
    loss_buf = loss.value();
    grad_buf = ad::grad(loss, {xv})[0].value();
  }
  const ad::DemoteStats stats = ad::demote_plan(p, {loss_buf, grad_buf});
  EXPECT_GT(stats.demoted, 0u) << c.name << ": nothing ran in fp32";
  EXPECT_GT(stats.downcasts, 0u) << c.name;
  EXPECT_GT(stats.upcasts, 0u) << c.name;
  EXPECT_EQ(stats.thunks_before, stats.demoted + stats.kept_fp64) << c.name;

  // Fresh inputs through the demoted plan vs an eager fp64 recomputation.
  kernels::copy_into(x, Tensor::rand(c.shape, rng, c.lo, c.hi));
  p.replay();
  const ad::Variable ref_x = ad::Variable::leaf(x.clone());
  const ad::Variable ref_loss = c.fn(ref_x);
  const Tensor ref_grad = ad::grad(ref_loss, {ref_x})[0].value();
  EXPECT_NEAR(loss_buf[0], ref_loss.item(),
              1e-4 * std::max(1.0, std::abs(ref_loss.item())))
      << c.name << ": loss drifted past the mixed tolerance";
  for (std::int64_t i = 0; i < ref_grad.numel(); ++i) {
    ASSERT_NEAR(grad_buf[i], ref_grad[i],
                1e-4 * std::max(1.0, std::abs(ref_grad[i])))
        << c.name << " grad element " << i;
  }
}

TEST(CrossPrecision, GradSweepMatchesEagerFp64WithinTolerance) {
  for (const SweepCase& c : sweep_cases()) {
    run_sweep_case(c, 20260807);
  }
}

TEST(CrossPrecision, GradSweepHoldsUnderEverySimdVariant) {
  const simd::Isa original = simd::active_isa();
  for (const simd::Isa isa : simd::available_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    for (const SweepCase& c : sweep_cases()) {
      run_sweep_case(c, 77 + static_cast<std::uint64_t>(isa));
    }
  }
  ASSERT_TRUE(simd::force_isa(original));
}

// ---- trainer-level accuracy and checkpoint contracts -----------------------

TEST(CrossPrecision, MixedTrainingMatchesFp64WithinDocumentedBounds) {
  auto problem = make_free_packet_problem();
  TrainConfig config = tiny_config(30);
  config.graph = GraphMode::kOn;

  double l2_fp64 = 0.0, loss_fp64 = 0.0;
  {
    PrecisionGuard guard(ad::Precision::kFp64);
    auto model = tiny_model(*problem, 21);
    Trainer trainer(problem, model, config);
    const TrainResult result = trainer.fit();
    l2_fp64 = result.final_l2;
    loss_fp64 = result.final_loss;
  }
  double l2_mixed = 0.0, loss_mixed = 0.0;
  {
    PrecisionGuard guard(ad::Precision::kMixed);
    auto model = tiny_model(*problem, 21);
    Trainer trainer(problem, model, config);
    const TrainResult result = trainer.fit();
    l2_mixed = result.final_l2;
    loss_mixed = result.final_loss;
  }

  // The documented T1 bounds (DESIGN.md "Mixed precision"): the mixed run
  // must land within 0.02 absolute relative-L2 of the fp64 run and within
  // 25% on the final loss. fp32 drift compounds over the 30 Adam steps, so
  // these are run-level bounds, not per-step ones.
  ASSERT_TRUE(std::isfinite(l2_mixed));
  ASSERT_TRUE(std::isfinite(loss_mixed));
  EXPECT_NEAR(l2_mixed, l2_fp64, 0.02);
  EXPECT_NEAR(loss_mixed, loss_fp64, 0.25 * loss_fp64);
}

TEST(CrossPrecision, CheckpointFromMixedRunHoldsFp64MastersBitForBit) {
  PrecisionGuard guard(ad::Precision::kMixed);
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 5);
  TrainConfig config = tiny_config(8);
  config.graph = GraphMode::kOn;
  CheckpointConfig ckpt;
  ckpt.dir = ::testing::TempDir() + "mixed_ckpt";
  ckpt.every = 4;
  config.checkpoint = ckpt;

  Trainer trainer(problem, model, config);
  const TrainResult result = trainer.fit();
  ASSERT_EQ(result.epochs_run, 8);

  // Load the final checkpoint into a fresh model: every parameter double
  // must equal the trained master bit-for-bit. If the training loop had
  // ever published weights through the fp32 shadows, the low mantissa bits
  // would be zeroed and this comparison would catch it.
  auto restored = tiny_model(*problem, 99);  // different init, fully replaced
  const Checkpointer writer(ckpt);
  const TrainingState state =
      Checkpointer::load_state(writer.last_path(), restored->named_parameters());
  EXPECT_EQ(state.epoch, 7);
  const auto trained = model->parameters();
  const auto loaded = restored->parameters();
  ASSERT_EQ(trained.size(), loaded.size());
  bool any_sub_float_bits = false;
  for (std::size_t i = 0; i < trained.size(); ++i) {
    const Tensor& a = trained[i].value();
    const Tensor& b = loaded[i].value();
    ASSERT_TRUE(a.same_shape(b));
    for (std::int64_t j = 0; j < a.numel(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "parameter " << i << " element " << j;
      any_sub_float_bits =
          any_sub_float_bits ||
          static_cast<double>(static_cast<float>(b[j])) != b[j];
    }
  }
  // Sanity that the assertion above has teeth: Adam-updated masters carry
  // more precision than a float round trip would preserve.
  EXPECT_TRUE(any_sub_float_bits)
      << "master weights are all float-representable; the bit-for-bit "
         "check cannot distinguish fp64 masters from published fp32";
}

// ---- second stage (Adam -> L-BFGS) -----------------------------------------

TEST(Trainer, SecondStageRefinesTheAdamResult) {
  PrecisionGuard guard(ad::Precision::kFp64);
  auto problem = make_free_packet_problem();

  TrainConfig adam_only = tiny_config(20);
  auto model_a = tiny_model(*problem, 13);
  Trainer trainer_a(problem, model_a, adam_only);
  const TrainResult plain = trainer_a.fit();

  TrainConfig two_stage = tiny_config(20);
  two_stage.second_stage.enabled = true;
  two_stage.second_stage.lbfgs.max_iterations = 25;
  auto model_b = tiny_model(*problem, 13);
  Trainer trainer_b(problem, model_b, two_stage);
  const TrainResult refined = trainer_b.fit();

  // Identical seeds make the Adam stages bit-identical, so the L-BFGS
  // stage starts exactly where the plain run stopped; its line search only
  // accepts decreases, so the refined loss cannot be worse.
  ASSERT_TRUE(std::isfinite(refined.final_loss));
  EXPECT_LE(refined.final_loss, plain.final_loss);
  EXPECT_LT(refined.final_loss, 0.9 * plain.final_loss)
      << "second stage made no measurable progress";
}

TEST(Trainer, RunSecondStageIsDrivableAfterFit) {
  PrecisionGuard guard(ad::Precision::kMixed);  // must be ignored: fp64 eager
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 17);
  TrainConfig config = tiny_config(10);
  config.second_stage.lbfgs.max_iterations = 15;
  Trainer trainer(problem, model, config);
  const TrainResult result = trainer.fit();
  const optim::LbfgsResult refined = trainer.run_second_stage(10);
  EXPECT_GT(refined.iterations, 0);
  ASSERT_TRUE(std::isfinite(refined.final_loss));
  EXPECT_LE(refined.final_loss, result.final_loss);
}

TEST(Trainer, SecondStageConfigValidation) {
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 19);
  TrainConfig config = tiny_config(2);
  config.second_stage.enabled = true;
  config.second_stage.lbfgs.max_iterations = 0;
  EXPECT_THROW(Trainer(problem, model, config), ConfigError);
  config = tiny_config(2);
  config.second_stage.enabled = true;
  config.second_stage.lbfgs.history = 0;
  EXPECT_THROW(Trainer(problem, model, config), ConfigError);
  // Disabled second stage ignores nonsense L-BFGS settings.
  config = tiny_config(2);
  config.second_stage.enabled = false;
  config.second_stage.lbfgs.max_iterations = 0;
  EXPECT_NO_THROW(Trainer(problem, model, config));
}

}  // namespace
}  // namespace qpinn::core
