// Runtime dispatch for the SIMD layer: CPU feature detection, the
// QPINN_SIMD override, and the atomic pointer to the active variant's
// fp64/fp32 table pair.
//
// The per-ISA tables themselves live in simd_scalar.cpp / simd_sse2.cpp /
// simd_avx2.cpp / simd_neon.cpp, each compiled with the matching target
// flags (see src/CMakeLists.txt); this TU is compiled with the project
// baseline, so it only ever calls through function pointers after the
// runtime support check.
#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <mutex>

#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn::simd {

namespace detail {

// Defined in the per-ISA translation units.
const Tables* scalar_tables();
#if defined(QPINN_SIMD_X86)
const Tables* sse2_tables();
#endif
#if defined(QPINN_HAVE_AVX2_TU)
const Tables* avx2_tables();
#endif
#if defined(QPINN_SIMD_NEON)
const Tables* neon_tables();
#endif

namespace {

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
#if defined(QPINN_SIMD_X86)
      // SSE2 is part of the x86-64 baseline ABI.
      return true;
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(QPINN_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(QPINN_SIMD_NEON)
      // Advanced SIMD is architecturally mandatory on AArch64.
      return true;
#else
      return false;
#endif
  }
  return false;
}

// Null when the variant is compiled out or unsupported on this CPU.
const Tables* tables_for(Isa isa) {
  if (!cpu_supports(isa)) return nullptr;
  switch (isa) {
    case Isa::kScalar:
      return scalar_tables();
    case Isa::kSse2:
#if defined(QPINN_SIMD_X86)
      return sse2_tables();
#else
      return nullptr;
#endif
    case Isa::kAvx2:
#if defined(QPINN_HAVE_AVX2_TU)
      return avx2_tables();
#else
      return nullptr;
#endif
    case Isa::kNeon:
#if defined(QPINN_SIMD_NEON)
      return neon_tables();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const Tables* resolve_initial() {
  const std::string requested = env_string("QPINN_SIMD");
  if (!requested.empty()) {
    const Isa isa = parse_isa(requested);
    const Tables* t = tables_for(isa);
    if (t == nullptr) {
      throw ConfigError("QPINN_SIMD requests '" + std::string(isa_name(isa)) +
                        "', which is not available on this build/CPU");
    }
    return t;
  }
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon, Isa::kSse2}) {
    if (const Tables* t = tables_for(isa)) return t;
  }
  return scalar_tables();
}

std::atomic<const Tables*> g_active{nullptr};

}  // namespace

const Tables& active_tables() {
  const Tables* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  static std::once_flag once;
  std::call_once(once, [] {
    g_active.store(resolve_initial(), std::memory_order_release);
  });
  return *g_active.load(std::memory_order_acquire);
}

}  // namespace detail

Isa active_isa() { return active().isa; }

bool force_isa(Isa isa) {
  const Tables* t = detail::tables_for(isa);
  if (t == nullptr) return false;
  detail::active_tables();  // make sure first-use resolution has happened
  detail::g_active.store(t, std::memory_order_release);
  return true;
}

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon, Isa::kSse2, Isa::kScalar}) {
    if (detail::tables_for(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

Isa parse_isa(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "off" || lower == "scalar") return Isa::kScalar;
  if (lower == "sse2") return Isa::kSse2;
  if (lower == "avx2") return Isa::kAvx2;
  if (lower == "neon") return Isa::kNeon;
  throw ConfigError("unknown QPINN_SIMD value '" + name +
                    "' (expected off|scalar|sse2|avx2|neon)");
}

}  // namespace qpinn::simd
