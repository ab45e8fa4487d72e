// SIMD layer: width-agnostic vector kernels with one-time runtime
// dispatch, templated on element type (double and float).
//
// This header is the ONLY place in the repository allowed to touch raw
// SIMD intrinsics (enforced by tools/qpinn_lint.py banned-intrinsics).
// Everything above it programs against two things:
//
//   1. A `KernelTableT<T>` of C-style function pointers (one table per
//      instruction-set variant and element type) covering the hot
//      kernels: contiguous elementwise arithmetic, row-broadcast
//      binaries, reductions, in-place BLAS-1 style updates, the fused
//      Adam sweep, and the matmul micro-kernels. `KernelTable` is the
//      fp64 table (`KernelTableT<double>`), `KernelTableF` the fp32 one.
//   2. `table<T>()`, which returns the table of element type T from the
//      variant selected once at first use by runtime CPU detection
//      (cpuid-backed __builtin_cpu_supports on x86, compile-target NEON
//      on aarch64), overridable with the QPINN_SIMD environment variable
//      (off|scalar|sse2|avx2|neon) and, for tests, switchable at
//      runtime with force_isa(). Both element widths come from one
//      atomic load of the active variant's table pair, so they always
//      dispatch to the same ISA. The precision-generic kernel bodies in
//      tensor/executors.hpp are its callers.
//
// Kernel implementations are written once as width- and element-
// agnostic templates over a small vector wrapper (VecScalar / VecSse2 /
// VecAvx2 / VecNeon for double, VecScalarF / VecSse2F / VecAvx2F /
// VecNeonF for float); per-ISA translation units (simd_scalar.cpp,
// simd_sse2.cpp, ...) instantiate them with the matching target flags,
// so no TU ever executes instructions its compile target does not
// guarantee without a prior runtime check. Scalar immediates cross the
// table ABI as double and are cast once at kernel entry (an identity
// cast for the fp64 tables, so fp64 behavior is unchanged).
//
// Bit-identity contract (fp64 tables): for the elementwise arithmetic
// kernels (bin_same/bin_row, neg, scale, add_scalar, square, reciprocal,
// sqrt, abs, relu, step, sign, tanh, bias_tanh, sin, cos, bias_sin, axpy,
// scale_inplace, axpby, acc_add, adam) the vector body performs exactly the
// lane-wise IEEE operation sequence of the scalar code and fringe elements
// run the identical scalar expressions, so results are bit-identical across
// every dispatch variant (the per-ISA TUs are compiled with
// -ffp-contract=off so the compiler cannot fuse a*b+c differently per
// target). tanh, sin and cos (and the fused bias_tanh and bias_sin) are
// branchless polynomial implementations (tanh_lanes, sincos_lanes below),
// NOT bit-equal to libm: tanh is within a few ulp of std::tanh, fp64 sin/cos
// within 2 ulp of glibc (1 ulp measured) and fp32 within 2 ulp of sinf/cosf.
// The scalar fringe runs the same lane algorithm, never libm, so every
// variant (and every thread-count chunking) produces identical bits. The one
// libm use is sin/cos of |x| > SinCosTraits<T>::kMaxArg (about 2^20*pi/2 in
// fp64, 2^14*pi/2 in fp32), past the exact Cody-Waite reduction: those lanes
// are replaced per element, identically on the vector and scalar paths, so
// the bits stay table- and chunk-invariant there too. Reductions (dot, sum,
// square_sum, weighted_square_sum) and the matmul micro-kernels reassociate
// and may use FMA, so they agree across variants only to rounding; they stay
// deterministic for a fixed variant. Within one table the three matmul
// micro-kernels give every output element the same operation sequence, so
// matmul_tn_rows / matmul_nt_rows equal matmul_rows on a materialized
// transpose bit for bit (the autodiff matmul backward relies on this; it is
// asserted in tests/kernels_test.cpp). IEEE semantics are preserved
// everywhere: no operand value is skipped (0 * NaN stays NaN) and
// comparisons are ordered/non-signaling, so NaN takes the "else" branch
// exactly like the scalar ternaries.
//
// The fp32 tables keep the same per-variant bit-identity guarantees for
// the elementwise kernels (scalar fringe == vector lane expression, no
// FMA, same select semantics), but fp32 results are of course not
// comparable bit-for-bit with fp64 — mixed-precision consumers gate on
// tolerances instead (see src/autodiff/precision.hpp). The fp32
// reductions accumulate in double and return double, so loss sums keep
// fp64 accumulation even when the summed values are fp32.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define QPINN_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#define QPINN_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace qpinn::simd {

// ---- dispatch surface ----------------------------------------------------

enum class Isa : int { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };

/// Index into KernelTableT::bin_same / bin_row.
enum BinOp : int { kAdd = 0, kSub = 1, kMul = 2, kDiv = 3, kNumBinOps = 4 };

/// Per-step constants of the fused Adam update (bias corrections are
/// precomputed by the caller: bias_corr1 = 1 - beta1^t, etc.). Always
/// fp64 — the optimizer state is master-precision regardless of what
/// the forward sweeps run in.
struct AdamParams {
  double lr = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double eps = 0.0;
  double weight_decay = 0.0;
  double bias_corr1 = 1.0;
  double bias_corr2 = 1.0;
  bool decoupled = false;
};

/// One fully-populated kernel variant over element type T. All pointers
/// are non-null. Scalar immediates stay double in the ABI (cast once at
/// kernel entry); reductions always accumulate to and return double.
template <class T>
struct KernelTableT {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  std::size_t width = 1;  ///< elements per vector register

  // Contiguous same-length elementwise: o[i] = a[i] op b[i].
  void (*bin_same[kNumBinOps])(const T* a, const T* b, T* o, std::size_t n);
  // Row broadcast: o[r][c] = a[r][c] op b[c] (the bias-add pattern).
  void (*bin_row[kNumBinOps])(const T* a, const T* b, T* o, std::size_t rows,
                              std::size_t cols);

  void (*neg)(const T* a, T* o, std::size_t n);
  void (*scale)(const T* a, double s, T* o, std::size_t n);
  void (*add_scalar)(const T* a, double s, T* o, std::size_t n);
  void (*square)(const T* a, T* o, std::size_t n);
  void (*reciprocal)(const T* a, T* o, std::size_t n);
  void (*sqrt)(const T* a, T* o, std::size_t n);
  void (*abs)(const T* a, T* o, std::size_t n);
  void (*relu)(const T* a, T* o, std::size_t n);
  void (*step)(const T* a, T* o, std::size_t n);
  void (*sign)(const T* a, T* o, std::size_t n);
  void (*tanh)(const T* a, T* o, std::size_t n);
  /// Fused bias + tanh: o[r][c] = tanh(a[r][c] + b[c]); bit-identical to
  /// composing bin_row[kAdd] with tanh.
  void (*bias_tanh)(const T* a, const T* b, T* o, std::size_t rows,
                    std::size_t cols);
  /// Fused tanh backward: o[i] = g[i] * (1 - t[i]^2); bit-identical to the
  /// square/neg/add_scalar/mul composition (see detail::OpTanhGrad).
  void (*tanh_grad)(const T* g, const T* t, T* o, std::size_t n);
  void (*sin)(const T* a, T* o, std::size_t n);
  void (*cos)(const T* a, T* o, std::size_t n);
  /// Fused bias + sin: o[r][c] = sin(a[r][c] + b[c]); bit-identical to
  /// composing bin_row[kAdd] with sin.
  void (*bias_sin)(const T* a, const T* b, T* o, std::size_t rows,
                   std::size_t cols);

  double (*dot)(const T* a, const T* b, std::size_t n);
  double (*sum)(const T* a, std::size_t n);
  double (*square_sum)(const T* a, std::size_t n);
  /// sum_i w[i] * a[i]^2 — the fused PINN loss reduction.
  double (*weighted_square_sum)(const T* w, const T* a, std::size_t n);

  void (*axpy)(T* dst, double s, const T* src, std::size_t n);
  void (*scale_inplace)(T* dst, double s, std::size_t n);
  /// dst = a*dst + b*src in one sweep.
  void (*axpby)(T* dst, double a, double b, const T* src, std::size_t n);
  /// dst += src (the sum_to row-collapse inner loop).
  void (*acc_add)(T* dst, const T* src, std::size_t n);

  /// Fused Adam: moments + bias correction + parameter write, one sweep.
  void (*adam)(T* p, const T* g, T* m, T* v, std::size_t n,
               const AdamParams& cfg);

  // Matmul micro-kernels over output rows [i0, i1); out rows pre-zeroed.
  // matmul_rows:    out[n,m] = a[n,k] * b[k,m]
  // matmul_tn_rows: out[n,m] = a[k,n]^T * b[k,m]
  // matmul_nt_rows: out[n,m] = a[n,k] * b[m,k]^T
  void (*matmul_rows)(const T* a, const T* b, T* o, std::int64_t i0,
                      std::int64_t i1, std::int64_t k, std::int64_t m);
  void (*matmul_tn_rows)(const T* a, const T* b, T* o, std::int64_t i0,
                         std::int64_t i1, std::int64_t k, std::int64_t n,
                         std::int64_t m);
  void (*matmul_nt_rows)(const T* a, const T* b, T* o, std::int64_t i0,
                         std::int64_t i1, std::int64_t k, std::int64_t m);
};

using KernelTable = KernelTableT<double>;
using KernelTableF = KernelTableT<float>;

/// Both element widths of one instruction-set variant.
struct Tables {
  const KernelTable* f64;
  const KernelTableF* f32;
};

namespace detail {
/// The active variant's tables. First call resolves them from the CPU and
/// the QPINN_SIMD override; later calls are one atomic load.
const Tables& active_tables();
}  // namespace detail

/// The active kernel table for element type T (double or float). Both
/// widths come from one variant, so they always agree on the ISA.
template <class T>
const KernelTableT<T>& table() {
  const Tables& t = detail::active_tables();
  if constexpr (std::is_same_v<T, float>) {
    return *t.f32;
  } else {
    return *t.f64;
  }
}

/// table<double>() and table<float>().
inline const KernelTable& active() { return table<double>(); }
inline const KernelTableF& active_f32() { return table<float>(); }

/// Shorthand for active().isa.
Isa active_isa();

/// Switches the active tables (both element widths) at runtime (tests,
/// benchmarks). Returns false — leaving the current tables in place —
/// when the variant is not available on this build/CPU.
bool force_isa(Isa isa);

/// Every variant selectable on this build + CPU, best first.
std::vector<Isa> available_isas();

/// "scalar" / "sse2" / "avx2" / "neon".
const char* isa_name(Isa isa);

/// Parses an ISA name as accepted by QPINN_SIMD ("off" maps to kScalar,
/// case-insensitive). Throws qpinn::ConfigError on anything else.
Isa parse_isa(const std::string& name);

// ---- vector wrappers -----------------------------------------------------
//
// Each wrapper exposes the same static interface:
//   elem, reg, kWidth, kMmRowTile, load/store/set1/zero,
//   add/sub/mul/div/sqrt/fma/neg/abs, gt_and(a,b,c) = (a>b) ? c : 0
//   (lane-wise, NaN -> 0 like the scalar ternary), hsum (deterministic
//   low-to-high lane order, returns elem), plus the bitwise toolkit used
//   by the polynomial tanh: cmp_gt (all-ones/all-zeros mask),
//   band/bor/andnot (andnot(a, b) = (~a) & b, matching _mm_andnot_pd),
//   and pow2n, which maps a register of small *integral* values n to 2^n
//   via the round-to-int magic-number trick and exponent-field
//   arithmetic — defined behavior (unspecified value) for
//   non-integral/NaN lanes, so discarded select branches can feed it
//   garbage safely.
//
// Variants with kHasStream expose stream(p, v), an ALIGNED non-temporal
// store (p must be kWidth*sizeof(elem)-aligned), and fence(), which
// orders the write-combining buffers before any cross-thread
// publication. The value stored is identical to store() — only the
// cache behavior differs — so streaming never affects bit-identity.

struct VecScalar {
  using elem = double;
  using reg = double;
  static constexpr std::size_t kWidth = 1;
  static constexpr std::int64_t kMmRowTile = 4;
  static constexpr bool kHasStream = false;
  static reg load(const double* p) { return *p; }
  static void store(double* p, reg v) { *p = v; }
  static void stream(double* p, reg v) { *p = v; }
  static void fence() {}
  static reg set1(double s) { return s; }
  static reg zero() { return 0.0; }
  static reg add(reg a, reg b) { return a + b; }
  static reg sub(reg a, reg b) { return a - b; }
  static reg mul(reg a, reg b) { return a * b; }
  static reg div(reg a, reg b) { return a / b; }
  static reg sqrt(reg a) { return std::sqrt(a); }
  static reg fma(reg a, reg b, reg c) { return a * b + c; }
  static reg neg(reg a) { return -a; }
  static reg abs(reg a) { return std::abs(a); }
  static reg gt_and(reg a, reg b, reg c) { return a > b ? c : 0.0; }
  static reg cmp_gt(reg a, reg b) {  // branch-free: -1 or 0 as a bit mask
    return std::bit_cast<double>(-static_cast<std::uint64_t>(a > b));
  }
  static reg band(reg a, reg b) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) &
                                 std::bit_cast<std::uint64_t>(b));
  }
  static reg bor(reg a, reg b) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) |
                                 std::bit_cast<std::uint64_t>(b));
  }
  static reg andnot(reg a, reg b) {
    return std::bit_cast<double>(~std::bit_cast<std::uint64_t>(a) &
                                 std::bit_cast<std::uint64_t>(b));
  }
  static reg pow2n(reg nd) {
    const std::uint64_t u =
        std::bit_cast<std::uint64_t>(nd + 6755399441055744.0);
    return std::bit_cast<double>((u + 1023u) << 52);
  }
  static double hsum(reg a) { return a; }
};

/// Scalar float lanes: same algorithmic skeleton as VecScalar with the
/// 32-bit magic numbers (round-to-int magic 1.5*2^23, exponent bias 127,
/// mantissa width 23).
struct VecScalarF {
  using elem = float;
  using reg = float;
  static constexpr std::size_t kWidth = 1;
  static constexpr std::int64_t kMmRowTile = 4;
  static constexpr bool kHasStream = false;
  static reg load(const float* p) { return *p; }
  static void store(float* p, reg v) { *p = v; }
  static void stream(float* p, reg v) { *p = v; }
  static void fence() {}
  static reg set1(float s) { return s; }
  static reg zero() { return 0.0F; }
  static reg add(reg a, reg b) { return a + b; }
  static reg sub(reg a, reg b) { return a - b; }
  static reg mul(reg a, reg b) { return a * b; }
  static reg div(reg a, reg b) { return a / b; }
  static reg sqrt(reg a) { return std::sqrt(a); }
  static reg fma(reg a, reg b, reg c) { return a * b + c; }
  static reg neg(reg a) { return -a; }
  static reg abs(reg a) { return std::abs(a); }
  static reg gt_and(reg a, reg b, reg c) { return a > b ? c : 0.0F; }
  static reg cmp_gt(reg a, reg b) {  // branch-free: -1 or 0 as a bit mask
    return std::bit_cast<float>(-static_cast<std::uint32_t>(a > b));
  }
  static reg band(reg a, reg b) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) &
                                std::bit_cast<std::uint32_t>(b));
  }
  static reg bor(reg a, reg b) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) |
                                std::bit_cast<std::uint32_t>(b));
  }
  static reg andnot(reg a, reg b) {
    return std::bit_cast<float>(~std::bit_cast<std::uint32_t>(a) &
                                std::bit_cast<std::uint32_t>(b));
  }
  static reg pow2n(reg nd) {
    const std::uint32_t u = std::bit_cast<std::uint32_t>(nd + 12582912.0F);
    return std::bit_cast<float>((u + 127U) << 23);
  }
  static float hsum(reg a) { return a; }
};

#if defined(QPINN_SIMD_X86) && defined(__SSE2__)
struct VecSse2 {
  using elem = double;
  using reg = __m128d;
  static constexpr std::size_t kWidth = 2;
  static constexpr std::int64_t kMmRowTile = 2;
  static constexpr bool kHasStream = true;
  static reg load(const double* p) { return _mm_loadu_pd(p); }
  static void store(double* p, reg v) { _mm_storeu_pd(p, v); }
  static void stream(double* p, reg v) { _mm_stream_pd(p, v); }
  static void fence() { _mm_sfence(); }
  static reg set1(double s) { return _mm_set1_pd(s); }
  static reg zero() { return _mm_setzero_pd(); }
  static reg add(reg a, reg b) { return _mm_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm_mul_pd(a, b); }
  static reg div(reg a, reg b) { return _mm_div_pd(a, b); }
  static reg sqrt(reg a) { return _mm_sqrt_pd(a); }
  static reg fma(reg a, reg b, reg c) {
    return _mm_add_pd(_mm_mul_pd(a, b), c);
  }
  static reg neg(reg a) { return _mm_xor_pd(a, _mm_set1_pd(-0.0)); }
  static reg abs(reg a) { return _mm_andnot_pd(_mm_set1_pd(-0.0), a); }
  static reg gt_and(reg a, reg b, reg c) {
    return _mm_and_pd(_mm_cmpgt_pd(a, b), c);
  }
  static reg cmp_gt(reg a, reg b) { return _mm_cmpgt_pd(a, b); }
  static reg band(reg a, reg b) { return _mm_and_pd(a, b); }
  static reg bor(reg a, reg b) { return _mm_or_pd(a, b); }
  static reg andnot(reg a, reg b) { return _mm_andnot_pd(a, b); }
  static reg pow2n(reg nd) {
    const __m128i u = _mm_castpd_si128(
        _mm_add_pd(nd, _mm_set1_pd(6755399441055744.0)));
    return _mm_castsi128_pd(
        _mm_slli_epi64(_mm_add_epi64(u, _mm_set1_epi64x(1023)), 52));
  }
  static double hsum(reg a) {
    return _mm_cvtsd_f64(a) + _mm_cvtsd_f64(_mm_unpackhi_pd(a, a));
  }
};

struct VecSse2F {
  using elem = float;
  using reg = __m128;
  static constexpr std::size_t kWidth = 4;
  static constexpr std::int64_t kMmRowTile = 2;
  static constexpr bool kHasStream = true;
  static reg load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, reg v) { _mm_storeu_ps(p, v); }
  static void stream(float* p, reg v) { _mm_stream_ps(p, v); }
  static void fence() { _mm_sfence(); }
  static reg set1(float s) { return _mm_set1_ps(s); }
  static reg zero() { return _mm_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm_div_ps(a, b); }
  static reg sqrt(reg a) { return _mm_sqrt_ps(a); }
  static reg fma(reg a, reg b, reg c) {
    return _mm_add_ps(_mm_mul_ps(a, b), c);
  }
  static reg neg(reg a) { return _mm_xor_ps(a, _mm_set1_ps(-0.0F)); }
  static reg abs(reg a) { return _mm_andnot_ps(_mm_set1_ps(-0.0F), a); }
  static reg gt_and(reg a, reg b, reg c) {
    return _mm_and_ps(_mm_cmpgt_ps(a, b), c);
  }
  static reg cmp_gt(reg a, reg b) { return _mm_cmpgt_ps(a, b); }
  static reg band(reg a, reg b) { return _mm_and_ps(a, b); }
  static reg bor(reg a, reg b) { return _mm_or_ps(a, b); }
  static reg andnot(reg a, reg b) { return _mm_andnot_ps(a, b); }
  static reg pow2n(reg nd) {
    const __m128i u =
        _mm_castps_si128(_mm_add_ps(nd, _mm_set1_ps(12582912.0F)));
    return _mm_castsi128_ps(
        _mm_slli_epi32(_mm_add_epi32(u, _mm_set1_epi32(127)), 23));
  }
  static float hsum(reg a) {
    alignas(16) float t[4];
    _mm_store_ps(t, a);
    return ((t[0] + t[1]) + t[2]) + t[3];
  }
};
#endif  // QPINN_SIMD_X86 && __SSE2__

#if defined(QPINN_SIMD_X86) && defined(__AVX2__) && defined(__FMA__)
struct VecAvx2 {
  using elem = double;
  using reg = __m256d;
  static constexpr std::size_t kWidth = 4;
  static constexpr std::int64_t kMmRowTile = 4;
  static constexpr bool kHasStream = true;
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static void stream(double* p, reg v) { _mm256_stream_pd(p, v); }
  static void fence() { _mm_sfence(); }
  static reg set1(double s) { return _mm256_set1_pd(s); }
  static reg zero() { return _mm256_setzero_pd(); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static reg div(reg a, reg b) { return _mm256_div_pd(a, b); }
  static reg sqrt(reg a) { return _mm256_sqrt_pd(a); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_pd(a, b, c); }
  static reg neg(reg a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static reg abs(reg a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  static reg gt_and(reg a, reg b, reg c) {
    return _mm256_and_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ), c);
  }
  static reg cmp_gt(reg a, reg b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static reg band(reg a, reg b) { return _mm256_and_pd(a, b); }
  static reg bor(reg a, reg b) { return _mm256_or_pd(a, b); }
  static reg andnot(reg a, reg b) { return _mm256_andnot_pd(a, b); }
  static reg pow2n(reg nd) {
    const __m256i u = _mm256_castpd_si256(
        _mm256_add_pd(nd, _mm256_set1_pd(6755399441055744.0)));
    return _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_add_epi64(u, _mm256_set1_epi64x(1023)), 52));
  }
  static double hsum(reg a) {
    const __m128d lo = _mm256_castpd256_pd128(a);
    const __m128d hi = _mm256_extractf128_pd(a, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};

struct VecAvx2F {
  using elem = float;
  using reg = __m256;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::int64_t kMmRowTile = 4;
  static constexpr bool kHasStream = true;
  static reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static void stream(float* p, reg v) { _mm256_stream_ps(p, v); }
  static void fence() { _mm_sfence(); }
  static reg set1(float s) { return _mm256_set1_ps(s); }
  static reg zero() { return _mm256_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm256_div_ps(a, b); }
  static reg sqrt(reg a) { return _mm256_sqrt_ps(a); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_ps(a, b, c); }
  static reg neg(reg a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0F)); }
  static reg abs(reg a) {
    return _mm256_andnot_ps(_mm256_set1_ps(-0.0F), a);
  }
  static reg gt_and(reg a, reg b, reg c) {
    return _mm256_and_ps(_mm256_cmp_ps(a, b, _CMP_GT_OQ), c);
  }
  static reg cmp_gt(reg a, reg b) {
    return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
  }
  static reg band(reg a, reg b) { return _mm256_and_ps(a, b); }
  static reg bor(reg a, reg b) { return _mm256_or_ps(a, b); }
  static reg andnot(reg a, reg b) { return _mm256_andnot_ps(a, b); }
  static reg pow2n(reg nd) {
    const __m256i u = _mm256_castps_si256(
        _mm256_add_ps(nd, _mm256_set1_ps(12582912.0F)));
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(u, _mm256_set1_epi32(127)), 23));
  }
  static float hsum(reg a) {
    const __m128 lo = _mm256_castps256_ps128(a);
    const __m128 hi = _mm256_extractf128_ps(a, 1);
    alignas(16) float t[4];
    _mm_store_ps(t, _mm_add_ps(lo, hi));
    return ((t[0] + t[1]) + t[2]) + t[3];
  }
};
#endif  // QPINN_SIMD_X86 && __AVX2__ && __FMA__

#if defined(QPINN_SIMD_NEON)
struct VecNeon {
  using elem = double;
  using reg = float64x2_t;
  static constexpr std::size_t kWidth = 2;
  static constexpr std::int64_t kMmRowTile = 2;
  static constexpr bool kHasStream = false;
  static reg load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, reg v) { vst1q_f64(p, v); }
  static void stream(double* p, reg v) { vst1q_f64(p, v); }
  static void fence() {}
  static reg set1(double s) { return vdupq_n_f64(s); }
  static reg zero() { return vdupq_n_f64(0.0); }
  static reg add(reg a, reg b) { return vaddq_f64(a, b); }
  static reg sub(reg a, reg b) { return vsubq_f64(a, b); }
  static reg mul(reg a, reg b) { return vmulq_f64(a, b); }
  static reg div(reg a, reg b) { return vdivq_f64(a, b); }
  static reg sqrt(reg a) { return vsqrtq_f64(a); }
  static reg fma(reg a, reg b, reg c) { return vfmaq_f64(c, a, b); }
  static reg neg(reg a) { return vnegq_f64(a); }
  static reg abs(reg a) { return vabsq_f64(a); }
  static reg gt_and(reg a, reg b, reg c) {
    return vreinterpretq_f64_u64(
        vandq_u64(vcgtq_f64(a, b), vreinterpretq_u64_f64(c)));
  }
  static reg cmp_gt(reg a, reg b) {
    return vreinterpretq_f64_u64(vcgtq_f64(a, b));
  }
  static reg band(reg a, reg b) {
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
  }
  static reg bor(reg a, reg b) {
    return vreinterpretq_f64_u64(
        vorrq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
  }
  static reg andnot(reg a, reg b) {
    return vreinterpretq_f64_u64(
        vbicq_u64(vreinterpretq_u64_f64(b), vreinterpretq_u64_f64(a)));
  }
  static reg pow2n(reg nd) {
    const uint64x2_t u = vreinterpretq_u64_f64(
        vaddq_f64(nd, vdupq_n_f64(6755399441055744.0)));
    return vreinterpretq_f64_u64(
        vshlq_n_u64(vaddq_u64(u, vdupq_n_u64(1023)), 52));
  }
  static double hsum(reg a) {
    return vgetq_lane_f64(a, 0) + vgetq_lane_f64(a, 1);
  }
};

struct VecNeonF {
  using elem = float;
  using reg = float32x4_t;
  static constexpr std::size_t kWidth = 4;
  static constexpr std::int64_t kMmRowTile = 2;
  static constexpr bool kHasStream = false;
  static reg load(const float* p) { return vld1q_f32(p); }
  static void store(float* p, reg v) { vst1q_f32(p, v); }
  static void stream(float* p, reg v) { vst1q_f32(p, v); }
  static void fence() {}
  static reg set1(float s) { return vdupq_n_f32(s); }
  static reg zero() { return vdupq_n_f32(0.0F); }
  static reg add(reg a, reg b) { return vaddq_f32(a, b); }
  static reg sub(reg a, reg b) { return vsubq_f32(a, b); }
  static reg mul(reg a, reg b) { return vmulq_f32(a, b); }
  static reg div(reg a, reg b) { return vdivq_f32(a, b); }
  static reg sqrt(reg a) { return vsqrtq_f32(a); }
  static reg fma(reg a, reg b, reg c) { return vfmaq_f32(c, a, b); }
  static reg neg(reg a) { return vnegq_f32(a); }
  static reg abs(reg a) { return vabsq_f32(a); }
  static reg gt_and(reg a, reg b, reg c) {
    return vreinterpretq_f32_u32(
        vandq_u32(vcgtq_f32(a, b), vreinterpretq_u32_f32(c)));
  }
  static reg cmp_gt(reg a, reg b) {
    return vreinterpretq_f32_u32(vcgtq_f32(a, b));
  }
  static reg band(reg a, reg b) {
    return vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(b)));
  }
  static reg bor(reg a, reg b) {
    return vreinterpretq_f32_u32(
        vorrq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(b)));
  }
  static reg andnot(reg a, reg b) {
    return vreinterpretq_f32_u32(
        vbicq_u32(vreinterpretq_u32_f32(b), vreinterpretq_u32_f32(a)));
  }
  static reg pow2n(reg nd) {
    const uint32x4_t u = vreinterpretq_u32_f32(
        vaddq_f32(nd, vdupq_n_f32(12582912.0F)));
    return vreinterpretq_f32_u32(
        vshlq_n_u32(vaddq_u32(u, vdupq_n_u32(127)), 23));
  }
  static float hsum(reg a) {
    return ((vgetq_lane_f32(a, 0) + vgetq_lane_f32(a, 1)) +
            vgetq_lane_f32(a, 2)) +
           vgetq_lane_f32(a, 3);
  }
};
#endif  // QPINN_SIMD_NEON

// ---- width-agnostic kernel templates -------------------------------------

namespace detail {

/// The width-1 wrapper of the same element type, used for kernel fringe
/// elements so fringes run the identical lane algorithm.
template <class T>
struct ScalarVecFor;
template <>
struct ScalarVecFor<double> {
  using type = VecScalar;
};
template <>
struct ScalarVecFor<float> {
  using type = VecScalarF;
};

// Binary op tags: `s` is the scalar expression (also used verbatim for
// fringes), `v` the lane-wise vector equivalent.
struct OpAdd {
  template <class T>
  static T s(T a, T b) {
    return a + b;
  }
  template <class V>
  static typename V::reg v(typename V::reg a, typename V::reg b) {
    return V::add(a, b);
  }
};
struct OpSub {
  template <class T>
  static T s(T a, T b) {
    return a - b;
  }
  template <class V>
  static typename V::reg v(typename V::reg a, typename V::reg b) {
    return V::sub(a, b);
  }
};
struct OpMul {
  template <class T>
  static T s(T a, T b) {
    return a * b;
  }
  template <class V>
  static typename V::reg v(typename V::reg a, typename V::reg b) {
    return V::mul(a, b);
  }
};
struct OpDiv {
  template <class T>
  static T s(T a, T b) {
    return a / b;
  }
  template <class V>
  static typename V::reg v(typename V::reg a, typename V::reg b) {
    return V::div(a, b);
  }
};
// tanh backward: a * (1 - b^2), written as the exact IEEE op sequence of
// its composition square -> neg -> add_scalar(1.0) -> mul (negation is a
// sign flip, exact; no FMA, no reassociation), so the fused kernel is
// bit-identical to the four-kernel chain it replaces in optimized plans.
struct OpTanhGrad {
  template <class T>
  static T s(T a, T b) {
    return a * ((-(b * b)) + T(1.0));
  }
  template <class V>
  static typename V::reg v(typename V::reg a, typename V::reg b) {
    return V::mul(a, V::add(V::neg(V::mul(b, b)),
                            V::set1(typename V::elem(1.0))));
  }
};

/// Sweeps writing at least this many output elements bypass the cache
/// with non-temporal stores (4 MiB of doubles; float sweeps stream from
/// 2 MiB — still comfortably past last-level-cache residency, and one
/// shared threshold keeps the chunking logic element-agnostic). The
/// destination is write-only in ew_bin, so beyond last-level-cache size
/// regular stores just burn read-for-ownership bandwidth on the
/// 3-stream (a, b, o) memory-bound loop — NT stores cut the traffic
/// from 4 streams to 3. Below this size the working set is
/// cache-resident and evicting the output would LOSE bandwidth
/// (measured ~2x slower at 256x256), hence the high threshold. The
/// check is per parallel_for chunk, so each chunk decides
/// independently; either path stores identical values.
inline constexpr std::size_t kStreamMinElems = std::size_t{1} << 19;

template <class V, class Op>
void ew_bin(const typename V::elem* a, const typename V::elem* b,
            typename V::elem* o, std::size_t n) {
  using T = typename V::elem;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    if constexpr (V::kHasStream) {
      if (n >= kStreamMinElems) {
        // Peel scalar iterations until o hits the register alignment the
        // non-temporal store requires (element arrays are always
        // sizeof(T)-aligned).
        const auto addr = reinterpret_cast<std::uintptr_t>(o);
        const std::size_t misalign = addr % (w * sizeof(T));
        const std::size_t peel =
            misalign == 0 ? 0 : (w * sizeof(T) - misalign) / sizeof(T);
        for (; i < peel; ++i) o[i] = Op::template s<T>(a[i], b[i]);
        for (; i + w <= n; i += w) {
          V::stream(o + i, Op::template v<V>(V::load(a + i), V::load(b + i)));
        }
        // Drain the write-combining buffers before the parallel_for join
        // publishes this chunk to other threads.
        V::fence();
        for (; i < n; ++i) o[i] = Op::template s<T>(a[i], b[i]);
        return;
      }
    }
    for (; i + w <= n; i += w) {
      V::store(o + i, Op::template v<V>(V::load(a + i), V::load(b + i)));
    }
  }
  for (; i < n; ++i) o[i] = Op::template s<T>(a[i], b[i]);
}

template <class V, class Op>
void ew_bin_row(const typename V::elem* a, const typename V::elem* b,
                typename V::elem* o, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    ew_bin<V, Op>(a + r * cols, b, o + r * cols, cols);
  }
}

template <class V>
void ew_neg(const typename V::elem* a, typename V::elem* o, std::size_t n) {
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    for (; i + w <= n; i += w) V::store(o + i, V::neg(V::load(a + i)));
  }
  for (; i < n; ++i) o[i] = -a[i];
}

template <class V>
void ew_scale(const typename V::elem* a, double s, typename V::elem* o,
              std::size_t n) {
  using T = typename V::elem;
  const T sv = static_cast<T>(s);
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg vs = V::set1(sv);
    for (; i + w <= n; i += w) V::store(o + i, V::mul(vs, V::load(a + i)));
  }
  for (; i < n; ++i) o[i] = sv * a[i];
}

template <class V>
void ew_add_scalar(const typename V::elem* a, double s, typename V::elem* o,
                   std::size_t n) {
  using T = typename V::elem;
  const T sv = static_cast<T>(s);
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg vs = V::set1(sv);
    for (; i + w <= n; i += w) V::store(o + i, V::add(V::load(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] + sv;
}

template <class V>
void ew_square(const typename V::elem* a, typename V::elem* o,
               std::size_t n) {
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    for (; i + w <= n; i += w) {
      const typename V::reg x = V::load(a + i);
      V::store(o + i, V::mul(x, x));
    }
  }
  for (; i < n; ++i) o[i] = a[i] * a[i];
}

template <class V>
void ew_reciprocal(const typename V::elem* a, typename V::elem* o,
                   std::size_t n) {
  using T = typename V::elem;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg one = V::set1(T(1.0));
    for (; i + w <= n; i += w) V::store(o + i, V::div(one, V::load(a + i)));
  }
  for (; i < n; ++i) o[i] = T(1.0) / a[i];
}

template <class V>
void ew_sqrt(const typename V::elem* a, typename V::elem* o, std::size_t n) {
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    for (; i + w <= n; i += w) V::store(o + i, V::sqrt(V::load(a + i)));
  }
  for (; i < n; ++i) o[i] = std::sqrt(a[i]);
}

template <class V>
void ew_abs(const typename V::elem* a, typename V::elem* o, std::size_t n) {
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    for (; i + w <= n; i += w) V::store(o + i, V::abs(V::load(a + i)));
  }
  for (; i < n; ++i) o[i] = std::abs(a[i]);
}

template <class V>
void ew_relu(const typename V::elem* a, typename V::elem* o, std::size_t n) {
  using T = typename V::elem;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg z = V::zero();
    for (; i + w <= n; i += w) {
      const typename V::reg x = V::load(a + i);
      V::store(o + i, V::gt_and(x, z, x));
    }
  }
  for (; i < n; ++i) o[i] = a[i] > T(0.0) ? a[i] : T(0.0);
}

template <class V>
void ew_step(const typename V::elem* a, typename V::elem* o, std::size_t n) {
  using T = typename V::elem;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg z = V::zero();
    const typename V::reg one = V::set1(T(1.0));
    for (; i + w <= n; i += w) {
      V::store(o + i, V::gt_and(V::load(a + i), z, one));
    }
  }
  for (; i < n; ++i) o[i] = a[i] > T(0.0) ? T(1.0) : T(0.0);
}

template <class V>
void ew_sign(const typename V::elem* a, typename V::elem* o, std::size_t n) {
  using T = typename V::elem;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg z = V::zero();
    const typename V::reg one = V::set1(T(1.0));
    const typename V::reg mone = V::set1(T(-1.0));
    for (; i + w <= n; i += w) {
      const typename V::reg x = V::load(a + i);
      // The masks are disjoint, so add == or.
      V::store(o + i, V::add(V::gt_and(x, z, one), V::gt_and(z, x, mone)));
    }
  }
  for (; i < n; ++i) {
    o[i] = (a[i] > T(0.0)) ? T(1.0) : (a[i] < T(0.0) ? T(-1.0) : T(0.0));
  }
}

/// Lane-wise select: m ? a : b for full-width masks from cmp_gt.
template <class V>
inline typename V::reg vsel(typename V::reg m, typename V::reg a,
                            typename V::reg b) {
  return V::bor(V::band(m, a), V::andnot(m, b));
}

/// c[0] * z^(N-1) + ... + c[N-1], by Horner (high to low, no FMA).
template <class V, std::size_t N>
inline typename V::reg horner(typename V::reg z,
                              const typename V::elem (&c)[N]) {
  typename V::reg p = V::set1(c[0]);
  for (std::size_t d = 1; d < N; ++d) {
    p = V::add(V::mul(p, z), V::set1(c[d]));
  }
  return p;
}

/// Per-element-type constants of the polynomial tanh. The double
/// parameters are the original PR 5 values; the float ones follow the
/// same construction with 32-bit magic numbers, the fdlibm single-
/// precision Cody-Waite ln2 split (both halves positive, so the generic
/// reduction expression is shared), a lower saturation threshold
/// (tanhf rounds to 1 from ~8.7) and a Taylor polynomial truncated at
/// r^7/7! (~1.4 float ulp, matching the fp64 chain's ~few-ulp budget).
template <class T>
struct TanhTraits;

template <>
struct TanhTraits<double> {
  static constexpr double kMagic = 6755399441055744.0;  // 1.5 * 2^52
  static constexpr double kBig = 19.0625;
  static constexpr double kYClamp = 38.125;
  static constexpr double kLog2e = 1.4426950408889634074;
  static constexpr double kLn2Hi = 6.93147180369123816490e-01;
  static constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // q = 1/2! + r/3! + ... + r^11/13!  (Horner, high to low).
  static constexpr double kCoef[12] = {
      1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
      1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
      1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
      1.0 / 24.0,         1.0 / 6.0,         0.5};
};

template <>
struct TanhTraits<float> {
  static constexpr float kMagic = 12582912.0F;  // 1.5 * 2^23
  static constexpr float kBig = 9.0625F;
  static constexpr float kYClamp = 18.125F;
  static constexpr float kLog2e = 1.44269504F;
  static constexpr float kLn2Hi = 6.9313812256e-01F;
  static constexpr float kLn2Lo = 9.0580006145e-06F;
  // q = 1/2! + r/3! + ... + r^5/7!  (Horner, high to low).
  static constexpr float kCoef[6] = {1.0F / 5040.0F, 1.0F / 720.0F,
                                     1.0F / 120.0F,  1.0F / 24.0F,
                                     1.0F / 6.0F,    0.5F};
};

// Branchless polynomial tanh, identical lane algorithm on every variant
// of a given element type (add/sub/mul/div + bitwise ops only — no FMA,
// no libm, no float->int conversion), so results are bit-identical
// across ISAs and chunk boundaries. tanh(x) = sign(x) * em1 / (em1 + 2)
// with em1 = expm1(2|x|); expm1 by Cody-Waite range reduction
// (y = n*ln2 + r, |r| <= ln2/2) and a Taylor polynomial (degree 13 for
// double, ~1e-17 relative truncation; degree 7 for float, ~1e-8).
// |x| > kBig returns +-1 exactly (true tanh rounds to 1 there); those
// lanes still run the arithmetic on a clamped y so pow2n stays in
// range. NaN propagates through the computed branch; +-0 keeps its sign
// via the final bitwise-or.
template <class V>
inline typename V::reg tanh_lanes(typename V::reg x) {
  using R = typename V::reg;
  using T = typename V::elem;
  using Tr = TanhTraits<T>;
  const R magic = V::set1(Tr::kMagic);
  const R s = V::band(x, V::set1(T(-0.0)));
  const R a = V::abs(x);
  const R big = V::cmp_gt(a, V::set1(Tr::kBig));
  const R y = vsel<V>(big, V::set1(Tr::kYClamp), V::add(a, a));
  // n = round(y * log2(e)) via the magic-number trick (round-to-nearest).
  const R nd = V::sub(V::add(V::mul(y, V::set1(Tr::kLog2e)), magic), magic);
  // r = y - n*ln2, split high/low so n*ln2hi is exact for the reduced
  // exponent range.
  const R r = V::sub(V::sub(y, V::mul(nd, V::set1(Tr::kLn2Hi))),
                     V::mul(nd, V::set1(Tr::kLn2Lo)));
  const R q = horner<V>(r, Tr::kCoef);
  const R p = V::add(V::mul(V::mul(q, r), r), r);  // expm1(r)
  // expm1(y) = 2^n * (expm1(r) + 1) - 1; for n == 0 that difference
  // cancels the low bits of a tiny p, so keep p directly (nd >= 0 here).
  const R one = V::set1(T(1.0));
  const R sc = V::pow2n(nd);
  const R em1b = V::sub(V::mul(sc, V::add(p, one)), one);
  const R em1 = vsel<V>(V::cmp_gt(V::set1(T(0.5)), nd), p, em1b);
  R t = V::div(em1, V::add(em1, V::set1(T(2.0))));
  t = vsel<V>(big, one, t);
  return V::bor(s, t);
}

template <class V>
void ew_tanh(const typename V::elem* a, typename V::elem* o, std::size_t n) {
  using S = typename ScalarVecFor<typename V::elem>::type;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    for (; i + w <= n; i += w) {
      V::store(o + i, tanh_lanes<V>(V::load(a + i)));
    }
  }
  for (; i < n; ++i) o[i] = tanh_lanes<S>(a[i]);
}

template <class V>
void ew_bias_tanh(const typename V::elem* a, const typename V::elem* b,
                  typename V::elem* o, std::size_t rows, std::size_t cols) {
  using T = typename V::elem;
  using S = typename ScalarVecFor<T>::type;
  constexpr std::size_t w = V::kWidth;
  for (std::size_t row = 0; row < rows; ++row) {
    const T* ar = a + row * cols;
    T* orow = o + row * cols;
    std::size_t i = 0;
    if constexpr (w > 1) {
      for (; i + w <= cols; i += w) {
        V::store(orow + i,
                 tanh_lanes<V>(V::add(V::load(ar + i), V::load(b + i))));
      }
    }
    for (; i < cols; ++i) orow[i] = tanh_lanes<S>(ar[i] + b[i]);
  }
}

/// Per-element-type constants of the polynomial sin/cos. pi/2 is split
/// Cody-Waite style into kPio2[0..2], whose products with any n up to
/// kMaxArg * 2/pi are exact, plus a full-width tail kPio2[3]. The fp64
/// split and the kernel coefficients are fdlibm's (e_rem_pio2.c,
/// k_sin.c, k_cos.c; minimax on |r| <= pi/4). The fp32 split is pi/2 in
/// 8/9/9/24-bit parts and its polynomials are the Cephes sinf/cosf
/// minimax fits. kSin holds S6..S2 and kCos C6..C1 (Horner, high to low).
template <class T>
struct SinCosTraits;

template <>
struct SinCosTraits<double> {
  static constexpr double kMagic = 6755399441055744.0;  // 1.5 * 2^52
  static constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  static constexpr double kPio2[4] = {
      1.57079632673412561417e+00, 6.07710050630396597660e-11,
      2.02226624871116645580e-21, 8.47842766036889956997e-32};
  /// Just below 2^20 * pi/2: n <= 2^20 keeps n * kPio2[0..2] exact.
  static constexpr double kMaxArg = 1647099.0;
  static constexpr double kS1 = -1.66666666666666324348e-01;
  static constexpr double kSin[5] = {
      1.58969099521155010221e-10, -2.50507602534068634195e-08,
      2.75573137070700676789e-06, -1.98412698298579493134e-04,
      8.33333333332248946124e-03};
  static constexpr double kCos[6] = {
      -1.13596475577881948265e-11, 2.08757232129817482790e-09,
      -2.75573143513906633035e-07, 2.48015872894767294178e-05,
      -1.38888888888741095749e-03, 4.16666666666666019037e-02};
};

template <>
struct SinCosTraits<float> {
  static constexpr float kMagic = 12582912.0F;  // 1.5 * 2^23
  static constexpr float kTwoOverPi = 6.36619772e-01F;
  static constexpr float kPio2[4] = {1.5703125F, 4.8351287841796875e-04F,
                                     3.13855707645416259765625e-07F,
                                     6.077100628276710381e-11F};
  /// Just below 2^14 * pi/2: n <= 2^14 keeps n * kPio2[0..2] exact.
  static constexpr float kMaxArg = 25735.0F;
  static constexpr float kS1 = -1.6666654611e-01F;
  static constexpr float kSin[2] = {-1.9515295891e-04F, 8.3321608736e-03F};
  static constexpr float kCos[3] = {2.443315711809948e-05F,
                                    -1.388731625493765e-03F,
                                    4.166664568298827e-02F};
};

// Branchless polynomial sin (kCos = false) or cos (kCos = true), the same
// lane algorithm on every variant of a given element type (add/sub/mul +
// compares and bitwise selects only; no FMA, no libm, no float->int
// conversion), so results are bit-identical across ISAs and chunk
// boundaries. |x| = n*pi/2 + r with n from the magic-number round and r
// carried as a double-length y0 + y1: the first Cody-Waite step is exact,
// the next two keep their rounding errors (Fast2Sum). fdlibm's kernels
// take (y0, y1) to sin r and cos r on |r| <= pi/4, and n mod 4 selects
// and signs the quadrant. sin is odd, so its result is multiplied by
// sign(x) = +-1 (exact; keeps sin(-0) = -0). Lanes with |x| > kMaxArg
// compute garbage here and are replaced by sincos_store; NaN propagates
// through the arithmetic.
template <class V, bool kCos>
inline typename V::reg sincos_lanes(typename V::reg x) {
  using R = typename V::reg;
  using T = typename V::elem;
  using Tr = SinCosTraits<T>;
  const R one = V::set1(T(1.0));
  const R half = V::set1(T(0.5));
  const R magic = V::set1(Tr::kMagic);
  const R ax = V::abs(x);
  const R fn =
      V::sub(V::add(V::mul(ax, V::set1(Tr::kTwoOverPi)), magic), magic);
  const R r1 = V::sub(ax, V::mul(fn, V::set1(Tr::kPio2[0])));
  const R p2 = V::mul(fn, V::set1(Tr::kPio2[1]));
  const R r2 = V::sub(r1, p2);
  const R e2 = V::sub(V::sub(r1, r2), p2);
  const R p3 = V::mul(fn, V::set1(Tr::kPio2[2]));
  const R r3 = V::sub(r2, p3);
  const R e3 = V::sub(V::sub(r2, r3), p3);
  const R tail =
      V::sub(V::add(e2, e3), V::mul(fn, V::set1(Tr::kPio2[3])));
  const R y0 = V::add(r3, tail);
  const R y1 = V::sub(tail, V::sub(y0, r3));

  const R z = V::mul(y0, y0);
  // sin r = y0 - ((z*(y1/2 - v*q) - y1) - v*S1), v = y0^3 (k_sin.c).
  const R v = V::mul(z, y0);
  const R qs = horner<V>(z, Tr::kSin);
  const R sn = V::sub(
      y0, V::sub(V::sub(V::mul(z, V::sub(V::mul(half, y1), V::mul(v, qs))),
                        y1),
                 V::mul(v, V::set1(Tr::kS1))));
  // cos r = w + (((1 - w) - z/2) + (z*q - y0*y1)), w = 1 - z/2 (k_cos.c).
  const R qc = V::mul(z, horner<V>(z, Tr::kCos));
  const R hz = V::mul(half, z);
  const R w = V::sub(one, hz);
  const R cs = V::add(w, V::add(V::sub(V::sub(one, w), hz),
                                V::sub(V::mul(z, qc), V::mul(y0, y1))));

  // n mod 4: floor(n/4) = round(n/4 - 3/8) for integral n, exactly.
  const R q4 = V::sub(
      V::add(V::sub(V::mul(fn, V::set1(T(0.25))), V::set1(T(0.375))), magic),
      magic);
  const R m4 = V::sub(fn, V::mul(q4, V::set1(T(4.0))));
  const R upper = V::cmp_gt(m4, V::set1(T(1.5)));  // n mod 4 in {2, 3}
  const R odd = V::cmp_gt(V::sub(m4, V::band(upper, V::set1(T(2.0)))), half);
  if constexpr (kCos) {
    // cos: C, -S, -C, S.
    const R c = vsel<V>(odd, sn, cs);
    const R flip =
        V::band(V::cmp_gt(m4, half), V::cmp_gt(V::set1(T(2.5)), m4));
    return vsel<V>(flip, V::neg(c), c);
  } else {
    // sin: S, C, -S, -C.
    const R s = vsel<V>(odd, cs, sn);
    const R sign_x = V::bor(one, V::band(x, V::set1(T(-0.0))));
    return V::mul(vsel<V>(upper, V::neg(s), s), sign_x);
  }
}

/// Stores sincos_lanes of one register of arguments, then replaces every
/// lane with |x| > kMaxArg (+-inf included, NaN either way) by libm. The
/// vector body and the scalar fringe both go through here, so the
/// replacement is the same on every path.
template <class V, bool kCos>
inline void sincos_store(typename V::elem* o, typename V::reg x) {
  using T = typename V::elem;
  alignas(64) T xs[V::kWidth];
  V::store(xs, x);
  V::store(o, sincos_lanes<V, kCos>(x));
  for (std::size_t j = 0; j < V::kWidth; ++j) {
    if (std::abs(xs[j]) > SinCosTraits<T>::kMaxArg) {
      o[j] = kCos ? std::cos(xs[j]) : std::sin(xs[j]);  // lint-allow: banned-libm-sincos
    }
  }
}

template <class V, bool kCos>
void ew_sincos(const typename V::elem* a, typename V::elem* o,
               std::size_t n) {
  using S = typename ScalarVecFor<typename V::elem>::type;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    for (; i + w <= n; i += w) sincos_store<V, kCos>(o + i, V::load(a + i));
  }
  for (; i < n; ++i) sincos_store<S, kCos>(o + i, a[i]);
}

template <class V>
void ew_bias_sin(const typename V::elem* a, const typename V::elem* b,
                 typename V::elem* o, std::size_t rows, std::size_t cols) {
  using T = typename V::elem;
  using S = typename ScalarVecFor<T>::type;
  constexpr std::size_t w = V::kWidth;
  for (std::size_t row = 0; row < rows; ++row) {
    const T* ar = a + row * cols;
    T* orow = o + row * cols;
    std::size_t i = 0;
    if constexpr (w > 1) {
      for (; i + w <= cols; i += w) {
        sincos_store<V, false>(orow + i,
                               V::add(V::load(ar + i), V::load(b + i)));
      }
    }
    for (; i < cols; ++i) sincos_store<S, false>(orow + i, ar[i] + b[i]);
  }
}

// Reductions return double for every element type. The fp64 bodies use
// 4 (or 2) independent vector accumulators with FMA to hide latency,
// combining partials low-to-high — deterministic per variant. The fp32
// bodies promote each element to double and accumulate in unrolled
// double scalars instead: loads move half the bytes of the fp64 path,
// so the memory-bound regime stays fast, and loss sums keep full fp64
// accumulation (the mixed-precision contract).

template <class V>
double red_dot(const typename V::elem* a, const typename V::elem* b,
               std::size_t n) {
  using T = typename V::elem;
  if constexpr (std::is_same_v<T, double>) {
    constexpr std::size_t w = V::kWidth;
    std::size_t i = 0;
    double total = 0.0;
    if constexpr (w > 1) {
      typename V::reg acc0 = V::zero(), acc1 = V::zero();
      typename V::reg acc2 = V::zero(), acc3 = V::zero();
      for (; i + 4 * w <= n; i += 4 * w) {
        acc0 = V::fma(V::load(a + i), V::load(b + i), acc0);
        acc1 = V::fma(V::load(a + i + w), V::load(b + i + w), acc1);
        acc2 = V::fma(V::load(a + i + 2 * w), V::load(b + i + 2 * w), acc2);
        acc3 = V::fma(V::load(a + i + 3 * w), V::load(b + i + 3 * w), acc3);
      }
      for (; i + w <= n; i += w) {
        acc0 = V::fma(V::load(a + i), V::load(b + i), acc0);
      }
      total = V::hsum(V::add(V::add(acc0, acc1), V::add(acc2, acc3)));
    }
    for (; i < n; ++i) total += a[i] * b[i];
    return total;
  } else {
    std::size_t i = 0;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
    for (; i + 4 <= n; i += 4) {
      t0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
      t1 += static_cast<double>(a[i + 1]) * static_cast<double>(b[i + 1]);
      t2 += static_cast<double>(a[i + 2]) * static_cast<double>(b[i + 2]);
      t3 += static_cast<double>(a[i + 3]) * static_cast<double>(b[i + 3]);
    }
    double total = (t0 + t1) + (t2 + t3);
    for (; i < n; ++i) {
      total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    return total;
  }
}

template <class V>
double red_sum(const typename V::elem* a, std::size_t n) {
  using T = typename V::elem;
  if constexpr (std::is_same_v<T, double>) {
    constexpr std::size_t w = V::kWidth;
    std::size_t i = 0;
    double total = 0.0;
    if constexpr (w > 1) {
      typename V::reg acc0 = V::zero(), acc1 = V::zero();
      typename V::reg acc2 = V::zero(), acc3 = V::zero();
      for (; i + 4 * w <= n; i += 4 * w) {
        acc0 = V::add(acc0, V::load(a + i));
        acc1 = V::add(acc1, V::load(a + i + w));
        acc2 = V::add(acc2, V::load(a + i + 2 * w));
        acc3 = V::add(acc3, V::load(a + i + 3 * w));
      }
      for (; i + w <= n; i += w) acc0 = V::add(acc0, V::load(a + i));
      total = V::hsum(V::add(V::add(acc0, acc1), V::add(acc2, acc3)));
    }
    for (; i < n; ++i) total += a[i];
    return total;
  } else {
    std::size_t i = 0;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
    for (; i + 4 <= n; i += 4) {
      t0 += static_cast<double>(a[i]);
      t1 += static_cast<double>(a[i + 1]);
      t2 += static_cast<double>(a[i + 2]);
      t3 += static_cast<double>(a[i + 3]);
    }
    double total = (t0 + t1) + (t2 + t3);
    for (; i < n; ++i) total += static_cast<double>(a[i]);
    return total;
  }
}

template <class V>
double red_square_sum(const typename V::elem* a, std::size_t n) {
  using T = typename V::elem;
  if constexpr (std::is_same_v<T, double>) {
    constexpr std::size_t w = V::kWidth;
    std::size_t i = 0;
    double total = 0.0;
    if constexpr (w > 1) {
      typename V::reg acc0 = V::zero(), acc1 = V::zero();
      for (; i + 2 * w <= n; i += 2 * w) {
        const typename V::reg x0 = V::load(a + i);
        const typename V::reg x1 = V::load(a + i + w);
        acc0 = V::fma(x0, x0, acc0);
        acc1 = V::fma(x1, x1, acc1);
      }
      for (; i + w <= n; i += w) {
        const typename V::reg x = V::load(a + i);
        acc0 = V::fma(x, x, acc0);
      }
      total = V::hsum(V::add(acc0, acc1));
    }
    for (; i < n; ++i) total += a[i] * a[i];
    return total;
  } else {
    std::size_t i = 0;
    double t0 = 0.0, t1 = 0.0;
    for (; i + 2 <= n; i += 2) {
      const double x0 = static_cast<double>(a[i]);
      const double x1 = static_cast<double>(a[i + 1]);
      t0 += x0 * x0;
      t1 += x1 * x1;
    }
    double total = t0 + t1;
    for (; i < n; ++i) {
      const double x = static_cast<double>(a[i]);
      total += x * x;
    }
    return total;
  }
}

template <class V>
double red_weighted_square_sum(const typename V::elem* wgt,
                               const typename V::elem* a, std::size_t n) {
  using T = typename V::elem;
  if constexpr (std::is_same_v<T, double>) {
    constexpr std::size_t w = V::kWidth;
    std::size_t i = 0;
    double total = 0.0;
    if constexpr (w > 1) {
      typename V::reg acc0 = V::zero(), acc1 = V::zero();
      for (; i + 2 * w <= n; i += 2 * w) {
        const typename V::reg x0 = V::load(a + i);
        const typename V::reg x1 = V::load(a + i + w);
        acc0 = V::fma(V::mul(V::load(wgt + i), x0), x0, acc0);
        acc1 = V::fma(V::mul(V::load(wgt + i + w), x1), x1, acc1);
      }
      for (; i + w <= n; i += w) {
        const typename V::reg x = V::load(a + i);
        acc0 = V::fma(V::mul(V::load(wgt + i), x), x, acc0);
      }
      total = V::hsum(V::add(acc0, acc1));
    }
    for (; i < n; ++i) total += wgt[i] * a[i] * a[i];
    return total;
  } else {
    std::size_t i = 0;
    double t0 = 0.0, t1 = 0.0;
    for (; i + 2 <= n; i += 2) {
      const double x0 = static_cast<double>(a[i]);
      const double x1 = static_cast<double>(a[i + 1]);
      t0 += static_cast<double>(wgt[i]) * x0 * x0;
      t1 += static_cast<double>(wgt[i + 1]) * x1 * x1;
    }
    double total = t0 + t1;
    for (; i < n; ++i) {
      const double x = static_cast<double>(a[i]);
      total += static_cast<double>(wgt[i]) * x * x;
    }
    return total;
  }
}

template <class V>
void ip_axpy(typename V::elem* dst, double s, const typename V::elem* src,
             std::size_t n) {
  using T = typename V::elem;
  const T sv = static_cast<T>(s);
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg vs = V::set1(sv);
    for (; i + w <= n; i += w) {
      V::store(dst + i,
               V::add(V::load(dst + i), V::mul(vs, V::load(src + i))));
    }
  }
  for (; i < n; ++i) dst[i] += sv * src[i];
}

template <class V>
void ip_scale(typename V::elem* dst, double s, std::size_t n) {
  using T = typename V::elem;
  const T sv = static_cast<T>(s);
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg vs = V::set1(sv);
    for (; i + w <= n; i += w) {
      V::store(dst + i, V::mul(V::load(dst + i), vs));
    }
  }
  for (; i < n; ++i) dst[i] *= sv;
}

template <class V>
void ip_axpby(typename V::elem* dst, double a, double b,
              const typename V::elem* src, std::size_t n) {
  using T = typename V::elem;
  const T av = static_cast<T>(a);
  const T bv = static_cast<T>(b);
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg va = V::set1(av);
    const typename V::reg vb = V::set1(bv);
    for (; i + w <= n; i += w) {
      V::store(dst + i, V::add(V::mul(va, V::load(dst + i)),
                               V::mul(vb, V::load(src + i))));
    }
  }
  for (; i < n; ++i) dst[i] = av * dst[i] + bv * src[i];
}

template <class V>
void ip_acc_add(typename V::elem* dst, const typename V::elem* src,
                std::size_t n) {
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    for (; i + w <= n; i += w) {
      V::store(dst + i, V::add(V::load(dst + i), V::load(src + i)));
    }
  }
  for (; i < n; ++i) dst[i] += src[i];
}

// Fused Adam sweep. The vector body performs the exact lane-wise IEEE
// operation sequence of the scalar fringe (mul/add/div/sqrt, never FMA),
// so the update is bit-identical across dispatch variants — checkpoints
// written under one variant resume bit-for-bit under another. The fp64
// cfg fields are cast once at entry (identity for the fp64 table; the
// mixed-precision Trainer never runs Adam in fp32 — master weights stay
// double — but the instantiation exists for table completeness).
template <class V>
void adam_sweep(typename V::elem* p, const typename V::elem* g,
                typename V::elem* m, typename V::elem* v, std::size_t n,
                const AdamParams& cfg) {
  using T = typename V::elem;
  const bool coupled_wd = cfg.weight_decay > 0.0 && !cfg.decoupled;
  const bool decoupled_wd = cfg.weight_decay > 0.0 && cfg.decoupled;
  const T lr = static_cast<T>(cfg.lr);
  const T beta1 = static_cast<T>(cfg.beta1);
  const T beta2 = static_cast<T>(cfg.beta2);
  const T eps = static_cast<T>(cfg.eps);
  const T wd = static_cast<T>(cfg.weight_decay);
  const T bc1 = static_cast<T>(cfg.bias_corr1);
  const T bc2 = static_cast<T>(cfg.bias_corr2);
  const T ob1 = T(1.0) - beta1;
  const T ob2 = T(1.0) - beta2;
  constexpr std::size_t w = V::kWidth;
  std::size_t i = 0;
  if constexpr (w > 1) {
    const typename V::reg vb1 = V::set1(beta1);
    const typename V::reg vob1 = V::set1(ob1);
    const typename V::reg vb2 = V::set1(beta2);
    const typename V::reg vob2 = V::set1(ob2);
    const typename V::reg vbc1 = V::set1(bc1);
    const typename V::reg vbc2 = V::set1(bc2);
    const typename V::reg veps = V::set1(eps);
    const typename V::reg vlr = V::set1(lr);
    const typename V::reg vwd = V::set1(wd);
    for (; i + w <= n; i += w) {
      const typename V::reg pv = V::load(p + i);
      typename V::reg gj = V::load(g + i);
      if (coupled_wd) gj = V::add(gj, V::mul(vwd, pv));
      const typename V::reg mv =
          V::add(V::mul(vb1, V::load(m + i)), V::mul(vob1, gj));
      const typename V::reg vv = V::add(V::mul(vb2, V::load(v + i)),
                                        V::mul(vob2, V::mul(gj, gj)));
      V::store(m + i, mv);
      V::store(v + i, vv);
      const typename V::reg m_hat = V::div(mv, vbc1);
      const typename V::reg v_hat = V::div(vv, vbc2);
      typename V::reg update =
          V::div(m_hat, V::add(V::sqrt(v_hat), veps));
      if (decoupled_wd) update = V::add(update, V::mul(vwd, pv));
      V::store(p + i, V::sub(pv, V::mul(vlr, update)));
    }
  }
  for (; i < n; ++i) {
    T gj = g[i];
    if (coupled_wd) gj = gj + wd * p[i];
    m[i] = beta1 * m[i] + ob1 * gj;
    v[i] = beta2 * v[i] + ob2 * (gj * gj);
    const T m_hat = m[i] / bc1;
    const T v_hat = v[i] / bc2;
    T update = m_hat / (std::sqrt(v_hat) + eps);
    if (decoupled_wd) update = update + wd * p[i];
    p[i] = p[i] - lr * update;
  }
}

// ---- matmul micro-kernels ------------------------------------------------
//
// Register-tiled accumulator blocks of V::kMmRowTile output rows by 8
// output columns (8 / kWidth vector registers per row). Each loaded
// element feeds several FMAs. Fringe tiles (fewer rows or columns) run
// mm_fringe: scalar multiply-then-add in k order, accumulated in
// registers for up to kMmRowTile rows at once. No operand value is ever
// skipped (0 * NaN stays NaN).

inline constexpr std::int64_t kMmColTile = 8;

/// Depth cap for the stack-packed panels of the transposed matmul variants
/// (mm_tn_rows / mm_nt_rows). Panels are at most kMmPackK * 8 elements
/// (32 KiB of doubles) of stack — no heap traffic. Deeper k runs mm_tn_rows
/// on the unpacked tile loop and mm_nt_rows over several panels.
inline constexpr std::int64_t kMmPackK = 512;

/// A strided matrix operand: element (u, v) is p[u * su + v * sv].
template <class T>
struct MmView {
  const T* p;
  std::int64_t su, sv;
  T at(std::int64_t u, std::int64_t v) const { return p[u * su + v * sv]; }
};

/// One fringe tile: RT output rows (the first `ib` of them stored) by JB
/// columns at po (row stride m) from a(r, kk) and b(kk, c), in V registers
/// (scalar ones when V::kWidth does not divide JB) that stay live across
/// the whole k loop. Every element gets the scalar operation sequence:
/// start from 0, then add a(r, kk) * b(kk, c) (a rounded multiply, then
/// an add, never fma) in k order. Rows past `ib` repeat row ib - 1 and
/// are dropped.
template <class V, std::int64_t RT, std::int64_t JB>
void mm_fringe_tile(MmView<typename V::elem> a, MmView<typename V::elem> b,
                    typename V::elem* po, std::int64_t m, std::int64_t ib,
                    std::int64_t k) {
  using T = typename V::elem;
  using L = std::conditional_t<JB % V::kWidth == 0, V,
                               typename ScalarVecFor<T>::type>;
  constexpr std::int64_t w = static_cast<std::int64_t>(L::kWidth);
  typename L::reg acc[RT][JB / w] = {};  // +0.0 in every lane
  T bs[JB] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    typename L::reg bv[JB / w];
    if (w == 1 || b.sv != 1) {  // scalar lanes, or the nt kernel's strided b
      for (std::int64_t c = 0; c < JB; ++c) bs[c] = b.at(kk, c);
      for (std::int64_t c = 0; c < JB / w; ++c) bv[c] = L::load(bs + c * w);
    } else {
      for (std::int64_t c = 0; c < JB / w; ++c) {
        bv[c] = L::load(b.p + kk * b.su + c * w);
      }
    }
    for (std::int64_t r = 0; r < RT; ++r) {
      const typename L::reg a_rk = L::set1(a.at(std::min(r, ib - 1), kk));
      for (std::int64_t c = 0; c < JB / w; ++c) {
        acc[r][c] = L::add(acc[r][c], L::mul(a_rk, bv[c]));
      }
    }
  }
  for (std::int64_t r = 0; r < ib; ++r) {
    for (std::int64_t c = 0; c < JB / w; ++c) {
      L::store(po + r * m + c * w, acc[r][c]);
    }
  }
}

/// The fringe of the three matmul micro-kernels: `ib` <= kMmRowTile rows
/// by `jb` <= kMmColTile columns that the vector tile does not cover, run
/// as column pieces of kMmColTile, 4, 2 and 1. Each kernel passes its
/// operands as views relative to the tile, so every kernel gives an
/// element the sequence mm_rows gives it on the materialized operands.
template <class V>
void mm_fringe(MmView<typename V::elem> a, MmView<typename V::elem> b,
               typename V::elem* po, std::int64_t m, std::int64_t ib,
               std::int64_t jb, std::int64_t k) {
  using T = typename V::elem;
  constexpr std::int64_t rt = V::kMmRowTile;
  for (std::int64_t c = 0; c < jb;) {
    const MmView<T> bc{b.p + c * b.sv, b.su, b.sv};
    const std::int64_t left = jb - c;
    if (left >= kMmColTile) {
      mm_fringe_tile<V, rt, kMmColTile>(a, bc, po + c, m, ib, k);
      c += kMmColTile;
    } else if (left >= 4) {
      mm_fringe_tile<V, rt, 4>(a, bc, po + c, m, ib, k);
      c += 4;
    } else if (left >= 2) {
      mm_fringe_tile<V, rt, 2>(a, bc, po + c, m, ib, k);
      c += 2;
    } else {
      mm_fringe_tile<V, rt, 1>(a, bc, po + c, m, ib, k);
      c += 1;
    }
  }
}

template <class V>
void mm_rows(const typename V::elem* pa, const typename V::elem* pb,
             typename V::elem* po, std::int64_t i0, std::int64_t i1,
             std::int64_t k, std::int64_t m) {
  using T = typename V::elem;
  constexpr std::int64_t rt = V::kMmRowTile;
  constexpr std::int64_t cv =
      kMmColTile / static_cast<std::int64_t>(V::kWidth);
  constexpr std::size_t w = V::kWidth;
  for (std::int64_t i = i0; i < i1; i += rt) {
    const std::int64_t ib = std::min(rt, i1 - i);
    for (std::int64_t j = 0; j < m; j += kMmColTile) {
      const std::int64_t jb = std::min(kMmColTile, m - j);
      if (ib == rt && jb == kMmColTile) {
        typename V::reg acc[rt][cv];
        for (std::int64_t r = 0; r < rt; ++r) {
          for (std::int64_t c = 0; c < cv; ++c) acc[r][c] = V::zero();
        }
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const T* b_row = pb + kk * m + j;
          typename V::reg bv[cv];
          for (std::int64_t c = 0; c < cv; ++c) {
            bv[c] = V::load(b_row + static_cast<std::size_t>(c) * w);
          }
          for (std::int64_t r = 0; r < rt; ++r) {
            const typename V::reg a_rk = V::set1(pa[(i + r) * k + kk]);
            for (std::int64_t c = 0; c < cv; ++c) {
              acc[r][c] = V::fma(a_rk, bv[c], acc[r][c]);
            }
          }
        }
        for (std::int64_t r = 0; r < rt; ++r) {
          T* out_row = po + (i + r) * m + j;
          for (std::int64_t c = 0; c < cv; ++c) {
            V::store(out_row + static_cast<std::size_t>(c) * w, acc[r][c]);
          }
        }
      } else {
        mm_fringe<V>({pa + i * k, k, 1}, {pb + j, m, 1}, po + i * m + j, m,
                     ib, jb, k);
      }
    }
  }
}

// a[k,n]^T * b[k,m]: row r of the output tile reads COLUMN i+r of `a`, a
// stride-n walk that touches a fresh cache line per k step. The packed path
// copies the rt columns of the current row tile into a contiguous stack
// panel once, then every column tile of `b` streams against it with the
// exact FMA schedule of mm_rows.
template <class V>
void mm_tn_rows(const typename V::elem* pa, const typename V::elem* pb,
                typename V::elem* po, std::int64_t i0, std::int64_t i1,
                std::int64_t k, std::int64_t n, std::int64_t m) {
  using T = typename V::elem;
  constexpr std::int64_t rt = V::kMmRowTile;
  constexpr std::int64_t cv =
      kMmColTile / static_cast<std::int64_t>(V::kWidth);
  constexpr std::size_t w = V::kWidth;
  alignas(64) T apack[static_cast<std::size_t>(kMmPackK * rt)];
  for (std::int64_t i = i0; i < i1; i += rt) {
    const std::int64_t ib = std::min(rt, i1 - i);
    const bool packed = ib == rt && k <= kMmPackK;
    if (packed) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const T* a_col = pa + kk * n + i;
        for (std::int64_t r = 0; r < rt; ++r) apack[kk * rt + r] = a_col[r];
      }
    }
    for (std::int64_t j = 0; j < m; j += kMmColTile) {
      const std::int64_t jb = std::min(kMmColTile, m - j);
      if (ib == rt && jb == kMmColTile) {
        typename V::reg acc[rt][cv];
        for (std::int64_t r = 0; r < rt; ++r) {
          for (std::int64_t c = 0; c < cv; ++c) acc[r][c] = V::zero();
        }
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const T* a_col = packed ? apack + kk * rt : pa + kk * n + i;
          const T* b_row = pb + kk * m + j;
          typename V::reg bv[cv];
          for (std::int64_t c = 0; c < cv; ++c) {
            bv[c] = V::load(b_row + static_cast<std::size_t>(c) * w);
          }
          for (std::int64_t r = 0; r < rt; ++r) {
            const typename V::reg a_rk = V::set1(a_col[r]);
            for (std::int64_t c = 0; c < cv; ++c) {
              acc[r][c] = V::fma(a_rk, bv[c], acc[r][c]);
            }
          }
        }
        for (std::int64_t r = 0; r < rt; ++r) {
          T* out_row = po + (i + r) * m + j;
          for (std::int64_t c = 0; c < cv; ++c) {
            V::store(out_row + static_cast<std::size_t>(c) * w, acc[r][c]);
          }
        }
      } else {
        mm_fringe<V>({pa + i, 1, n}, {pb + j, m, 1}, po + i * m + j, m, ib,
                     jb, k);
      }
    }
  }
}

// a[n,k] * b[m,k]^T: output column j+c reads ROW j+c of `b`, so the
// broadcast-A tile of mm_rows needs b transposed. Each full column tile
// transposes a panel of at most kMmPackK rows of `b` into a contiguous
// stack buffer — amortized over every row tile of `a` — and runs the
// mm_rows schedule on it; deeper k takes several panels, carrying the
// accumulators through the output rows between them (a store and reload
// round nothing). Fringe elements run mm_rows' mm_fringe. Every output
// element therefore sees exactly the operation sequence mm_rows gives it
// on a materialized b^T, so mm_nt_rows(a, b) == mm_rows(a, b^T) bit for
// bit under every table.
template <class V>
void mm_nt_rows(const typename V::elem* pa, const typename V::elem* pb,
                typename V::elem* po, std::int64_t i0, std::int64_t i1,
                std::int64_t k, std::int64_t m) {
  using T = typename V::elem;
  constexpr std::int64_t rt = V::kMmRowTile;
  constexpr std::int64_t cv =
      kMmColTile / static_cast<std::int64_t>(V::kWidth);
  constexpr std::size_t w = V::kWidth;
  alignas(64) T bpack[static_cast<std::size_t>(kMmPackK * kMmColTile)];
  for (std::int64_t j = 0; j < m; j += kMmColTile) {
    const std::int64_t jb = std::min(kMmColTile, m - j);
    for (std::int64_t k0 = 0; jb == kMmColTile && k0 < k; k0 += kMmPackK) {
      const std::int64_t kb = std::min(kMmPackK, k - k0);
      for (std::int64_t c = 0; c < kMmColTile; ++c) {
        const T* b_row = pb + (j + c) * k + k0;
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          bpack[kk * kMmColTile + c] = b_row[kk];
        }
      }
      for (std::int64_t i = i0; i + rt <= i1; i += rt) {
        typename V::reg acc[rt][cv];
        for (std::int64_t r = 0; r < rt; ++r) {
          const T* out_row = po + (i + r) * m + j;
          for (std::int64_t c = 0; c < cv; ++c) {
            acc[r][c] = k0 == 0 ? V::zero()
                                : V::load(out_row +
                                          static_cast<std::size_t>(c) * w);
          }
        }
        for (std::int64_t kk = 0; kk < kb; ++kk) {
          const T* b_row = bpack + kk * kMmColTile;
          typename V::reg bv[cv];
          for (std::int64_t c = 0; c < cv; ++c) {
            bv[c] = V::load(b_row + static_cast<std::size_t>(c) * w);
          }
          for (std::int64_t r = 0; r < rt; ++r) {
            const typename V::reg a_rk =
                V::set1(pa[(i + r) * k + k0 + kk]);
            for (std::int64_t c = 0; c < cv; ++c) {
              acc[r][c] = V::fma(a_rk, bv[c], acc[r][c]);
            }
          }
        }
        for (std::int64_t r = 0; r < rt; ++r) {
          T* out_row = po + (i + r) * m + j;
          for (std::int64_t c = 0; c < cv; ++c) {
            V::store(out_row + static_cast<std::size_t>(c) * w, acc[r][c]);
          }
        }
      }
    }
    // Fringe: a partial column tile, or the rows past the last full row
    // tile, in mm_rows' fringe order.
    for (std::int64_t i = i0; i < i1; i += rt) {
      const std::int64_t ib = std::min(rt, i1 - i);
      if (ib == rt && jb == kMmColTile) continue;
      mm_fringe<V>({pa + i * k, k, 1}, {pb + j * k, 1, k}, po + i * m + j, m,
                   ib, jb, k);
    }
  }
}

/// Builds the full table for one vector wrapper. Instantiated once per
/// element type per per-ISA translation unit (see simd_scalar.cpp and
/// friends).
template <class V>
KernelTableT<typename V::elem> make_table(Isa isa, const char* name) {
  KernelTableT<typename V::elem> t;
  t.isa = isa;
  t.name = name;
  t.width = V::kWidth;
  t.bin_same[kAdd] = &ew_bin<V, OpAdd>;
  t.bin_same[kSub] = &ew_bin<V, OpSub>;
  t.bin_same[kMul] = &ew_bin<V, OpMul>;
  t.bin_same[kDiv] = &ew_bin<V, OpDiv>;
  t.bin_row[kAdd] = &ew_bin_row<V, OpAdd>;
  t.bin_row[kSub] = &ew_bin_row<V, OpSub>;
  t.bin_row[kMul] = &ew_bin_row<V, OpMul>;
  t.bin_row[kDiv] = &ew_bin_row<V, OpDiv>;
  t.neg = &ew_neg<V>;
  t.scale = &ew_scale<V>;
  t.add_scalar = &ew_add_scalar<V>;
  t.square = &ew_square<V>;
  t.reciprocal = &ew_reciprocal<V>;
  t.sqrt = &ew_sqrt<V>;
  t.abs = &ew_abs<V>;
  t.relu = &ew_relu<V>;
  t.step = &ew_step<V>;
  t.sign = &ew_sign<V>;
  t.tanh = &ew_tanh<V>;
  t.bias_tanh = &ew_bias_tanh<V>;
  t.tanh_grad = &ew_bin<V, OpTanhGrad>;
  t.sin = &ew_sincos<V, false>;
  t.cos = &ew_sincos<V, true>;
  t.bias_sin = &ew_bias_sin<V>;
  t.dot = &red_dot<V>;
  t.sum = &red_sum<V>;
  t.square_sum = &red_square_sum<V>;
  t.weighted_square_sum = &red_weighted_square_sum<V>;
  t.axpy = &ip_axpy<V>;
  t.scale_inplace = &ip_scale<V>;
  t.axpby = &ip_axpby<V>;
  t.acc_add = &ip_acc_add<V>;
  t.adam = &adam_sweep<V>;
  t.matmul_rows = &mm_rows<V>;
  t.matmul_tn_rows = &mm_tn_rows<V>;
  t.matmul_nt_rows = &mm_nt_rows<V>;
  return t;
}

}  // namespace detail

}  // namespace qpinn::simd
