#include "autodiff/plan_passes.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tensor/kernels.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn::autodiff::plan {

namespace {

namespace k = qpinn::kernels;

/// Buffer identity: storage start. Tensors never carry an offset, so two
/// tensors alias exactly when their data pointers are equal (reshape shares
/// the pointer; every kernel output is fresh storage).
using BufKey = const void*;

BufKey buf(const Tensor& t) { return t.data(); }

bool is_unary(const Thunk& t, UnaryKernel f) {
  return t.kind == ThunkKind::kUnary && t.k1 == f;
}
bool is_unary_scalar(const Thunk& t, UnaryScalarKernel f) {
  return t.kind == ThunkKind::kUnaryScalar && t.k1s == f;
}
bool is_binary(const Thunk& t, BinaryKernel f) {
  return t.kind == ThunkKind::kBinary && t.k2 == f;
}

// ---- pass 1: dead-thunk elimination ---------------------------------------
//
// One backward scan computes transitive liveness exactly: a thunk is kept
// only if its output is live below it (read by a kept thunk or a declared
// plan output). A dead thunk never marks its inputs live, so whole dead
// chains fall out in the same scan. A full-overwrite write kills liveness
// above it (earlier values of that buffer are unobservable); an
// accumulation (reads_out) keeps it live.

std::size_t eliminate_dead_thunks(std::vector<Thunk>& ts,
                                  const std::unordered_set<BufKey>& outputs) {
  std::unordered_set<BufKey> live = outputs;
  std::vector<char> keep(ts.size(), 0);
  for (std::size_t idx = ts.size(); idx-- > 0;) {
    const Thunk& t = ts[idx];
    const BufKey out = buf(t.out);
    if (live.count(out) == 0) continue;
    keep[idx] = 1;
    if (!t.reads_out()) live.erase(out);
    for (const Tensor& in : t.ins) live.insert(buf(in));
  }
  std::vector<Thunk> kept;
  kept.reserve(ts.size());
  std::size_t removed = 0;
  for (std::size_t idx = 0; idx < ts.size(); ++idx) {
    if (keep[idx] != 0) {
      kept.push_back(std::move(ts[idx]));
    } else {
      ++removed;
    }
  }
  ts = std::move(kept);
  return removed;
}

// ---- pass 2: elementwise fusion -------------------------------------------
//
// Pattern-matches adjacent thunk runs whose intermediates are ephemeral —
// written once, read once (both inside the pattern), not a declared output,
// untouched by opaque closures — and rewrites them onto a fused kernel that
// performs the identical per-element IEEE operation sequence. Only
// bit-exact rewrites are applied: the fused FMA reductions
// (square_sum/weighted_square_sum) accumulate in a different order than
// their compositions and are deliberately NOT substituted (see the
// bit-identity discussion in DESIGN.md).

struct AccessCount {
  std::size_t writes = 0;
  std::size_t reads = 0;
  bool opaque = false;
};

std::unordered_map<BufKey, AccessCount> count_accesses(
    const std::vector<Thunk>& ts) {
  std::unordered_map<BufKey, AccessCount> acc;
  for (const Thunk& t : ts) {
    const bool opaque = t.kind == ThunkKind::kOpaque;
    for (const Tensor& in : t.ins) {
      AccessCount& a = acc[buf(in)];
      a.reads += 1;
      a.opaque = a.opaque || opaque;
    }
    AccessCount& a = acc[buf(t.out)];
    a.writes += 1;
    if (t.reads_out()) a.reads += 1;
    a.opaque = a.opaque || opaque;
  }
  return acc;
}

std::size_t fuse_elementwise(std::vector<Thunk>& ts,
                             const std::unordered_set<BufKey>& outputs) {
  std::size_t fused_total = 0;
  for (int round = 0; round < 8; ++round) {
    const auto acc = count_accesses(ts);
    const auto ephemeral = [&](const Tensor& x) {
      if (outputs.count(buf(x)) != 0) return false;
      const auto it = acc.find(buf(x));
      if (it == acc.end()) return false;
      return it->second.writes == 1 && it->second.reads == 1 &&
             !it->second.opaque;
    };
    // `links(p, c, slot)` — p's output feeds exactly c's input `slot` and
    // dies there.
    const auto links = [&](const Thunk& p, const Thunk& c, std::size_t slot) {
      return slot < c.ins.size() && buf(c.ins[slot]) == buf(p.out) &&
             ephemeral(p.out);
    };

    std::vector<char> erased(ts.size(), 0);
    std::size_t fused_round = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (erased[i] != 0) continue;

      // tanh-backward chain: square(t) -> neg -> +1.0 -> mul(g, .) becomes
      // tanh_grad(g, t) = g * (1 - t^2), same lane-wise op sequence.
      if (i + 3 < ts.size() && is_unary(ts[i], &k::square_into) &&
          is_unary(ts[i + 1], &k::neg_into) && links(ts[i], ts[i + 1], 0) &&
          is_unary_scalar(ts[i + 2], &k::add_scalar_into) &&
          ts[i + 2].scalar == 1.0 && links(ts[i + 1], ts[i + 2], 0) &&
          is_binary(ts[i + 3], &k::mul_into) && links(ts[i + 2], ts[i + 3], 1) &&
          ts[i + 3].ins[0].same_shape(ts[i].ins[0]) &&
          ts[i + 3].out.same_shape(ts[i + 3].ins[0])) {
        Thunk& m = ts[i + 3];
        m.k2 = &k::tanh_grad_into;
        m.ins = {m.ins[0], ts[i].ins[0]};
        erased[i] = erased[i + 1] = erased[i + 2] = 1;
        fused_round += 3;
        continue;
      }

      // bias + activation: add(a, bias-row) -> tanh/sin becomes
      // bias_tanh/bias_sin (bit-identical per the SIMD table contract).
      if (i + 1 < ts.size() && is_binary(ts[i], &k::add_into) &&
          links(ts[i], ts[i + 1], 0) &&
          (is_unary(ts[i + 1], &k::tanh_into) ||
           is_unary(ts[i + 1], &k::sin_into)) &&
          is_row_vector_of(ts[i].ins[1].shape(), ts[i].ins[0].shape()) &&
          ts[i].out.same_shape(ts[i].ins[0])) {
        Thunk& act = ts[i + 1];
        const bool is_tanh = is_unary(act, &k::tanh_into);
        act.kind = ThunkKind::kBinary;
        act.k2 = is_tanh ? &k::bias_tanh_into : &k::bias_sin_into;
        act.k1 = nullptr;
        act.ins = {ts[i].ins[0], ts[i].ins[1]};
        erased[i] = 1;
        fused_round += 1;
        continue;
      }

      // Scalar folds into gradient accumulation: a unit-scale axpy whose
      // source is a dying scale (or neg) absorbs the factor —
      // dst += 1.0*(s*g) == dst += s*g exactly (and 1.0*(-g) == (-1.0)*g).
      if (i + 1 < ts.size() &&
          (is_unary_scalar(ts[i], &k::scale_into) ||
           is_unary(ts[i], &k::neg_into))) {
        const double s =
            ts[i].kind == ThunkKind::kUnaryScalar ? ts[i].scalar : -1.0;
        Thunk& c = ts[i + 1];
        if (c.kind == ThunkKind::kAxpyAcc && c.scalar == 1.0 &&
            links(ts[i], c, 0)) {
          c.ins[0] = ts[i].ins[0];
          c.scalar = s;
          erased[i] = 1;
          fused_round += 1;
          continue;
        }
        if (c.kind == ThunkKind::kCopyAxpy && c.scalar == 1.0 &&
            links(ts[i], c, 1)) {
          c.ins[1] = ts[i].ins[0];
          c.scalar = s;
          erased[i] = 1;
          fused_round += 1;
          continue;
        }
      }

      // Unit-scale accumulator materialize: dst = first; dst += 1.0*src is
      // one add sweep — round(first + 1.0*src) == round(first + src).
      if (ts[i].kind == ThunkKind::kCopyAxpy && ts[i].scalar == 1.0 &&
          ts[i].ins[0].same_shape(ts[i].ins[1]) &&
          ts[i].out.same_shape(ts[i].ins[0])) {
        Thunk& t = ts[i];
        t.kind = ThunkKind::kBinary;
        t.k2 = &k::add_into;
        fused_round += 1;
        continue;
      }
    }

    if (fused_round == 0) break;
    fused_total += fused_round;
    std::vector<Thunk> kept;
    kept.reserve(ts.size());
    for (std::size_t idx = 0; idx < ts.size(); ++idx) {
      if (erased[idx] == 0) kept.push_back(std::move(ts[idx]));
    }
    ts = std::move(kept);
  }
  return fused_total;
}

// ---- buffer facts shared by CSE and arena reuse ---------------------------

/// One buffer's accesses over the thunk sequence.
struct BufInfo {
  Tensor rep;  ///< a tensor on the buffer, held by the analysis
  long plan_refs = 0;
  std::size_t writes = 0;
  bool opaque = false;
  bool read_before_write = false;
  std::size_t first_def = 0;
  std::size_t last_use = 0;

  /// The plan provably owns the buffer: produced in the plan, never read
  /// before its first write (that would make it an external input the host
  /// refreshes), untouched by opaque closures (their closures capture the
  /// original tensors), and with a storage use count exactly accounted for
  /// by the plan's own references plus `rep` — any outside observer fails.
  bool plan_owned() const {
    return writes > 0 && !read_before_write && !opaque &&
           rep.storage_use_count() == plan_refs + 1;
  }
};

std::unordered_map<BufKey, BufInfo> analyze_buffers(
    const std::vector<Thunk>& ts) {
  std::unordered_map<BufKey, BufInfo> bufs;
  const auto touch = [&](const Tensor& x, std::size_t i,
                         bool opaque) -> BufInfo& {
    BufInfo& b = bufs[buf(x)];
    if (b.plan_refs == 0) b.rep = x;
    b.plan_refs += 1;
    b.opaque = b.opaque || opaque;
    b.last_use = i;
    return b;
  };
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Thunk& t = ts[i];
    const bool opaque = t.kind == ThunkKind::kOpaque;
    for (const Tensor& in : t.ins) {
      BufInfo& b = touch(in, i, opaque);
      if (b.writes == 0) b.read_before_write = true;
    }
    BufInfo& b = touch(t.out, i, opaque);
    if (t.reads_out() && b.writes == 0) b.read_before_write = true;
    if (b.writes == 0) b.first_def = i;
    b.writes += 1;
  }
  return bufs;
}

// ---- pass 3: common-subexpression elimination -----------------------------
//
// Value numbering over the structured thunks. Every write gives its buffer a
// fresh value number; two structured thunks compute the same value when they
// agree on kind, kernel, scalar bit pattern, output shape and each input's
// value number and shape, because a structured kernel is a pure function of
// exactly those (see Thunk). The autodiff backward of sin/cos re-derives
// cos(a)/sin(a) at every derivative order; this pass computes each such
// value once.
//
// For a repeat at index l of the thunk at index e, one copy goes:
//   - later output droppable -> erase thunk l, rename its readers to e's
//     output;
//   - else earlier output droppable and the later output written once and
//     never read before that write -> retarget thunk e onto l's buffer,
//     rename e's readers to it, erase thunk l. No thunk touches l's buffer
//     between e and l, so writing it early is unobservable.
// A buffer is droppable when nothing but renameable structured readers can
// observe it: plan-owned (the arena-reuse privacy test), written once and
// not a declared output. The match itself requires e's output written
// once, so it still holds e's value for every renamed reader after l.

bool is_structured(const Thunk& t) {
  return t.kind == ThunkKind::kUnary || t.kind == ThunkKind::kUnaryScalar ||
         t.kind == ThunkKind::kBinary;
}

std::size_t eliminate_common_subexpressions(
    std::vector<Thunk>& ts, const std::unordered_set<BufKey>& outputs) {
  const std::unordered_map<BufKey, BufInfo> bufs = analyze_buffers(ts);
  // Privacy is decided before this pass takes any tensor copies of its own.
  std::unordered_set<BufKey> droppable;
  for (const auto& [key, b] : bufs) {
    if (b.plan_owned() && b.writes == 1 && outputs.count(key) == 0) {
      droppable.insert(key);
    }
  }
  std::unordered_map<BufKey, std::size_t> value;
  std::size_t next_value = 0;
  const auto value_of = [&](BufKey key) {
    const auto [it, fresh] = value.try_emplace(key, next_value);
    if (fresh) ++next_value;
    return it->second;
  };
  const auto append_shape = [](std::vector<std::int64_t>& key,
                               const Tensor& x) {
    key.push_back(static_cast<std::int64_t>(x.shape().size()));
    key.insert(key.end(), x.shape().begin(), x.shape().end());
  };

  std::map<std::vector<std::int64_t>, std::size_t> seen;  // key -> thunk
  std::unordered_map<BufKey, Tensor> rename;
  std::vector<char> erased(ts.size(), 0);
  std::size_t removed = 0;
  std::vector<std::int64_t> key;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    Thunk& t = ts[i];
    const BufKey out = buf(t.out);
    if (!is_structured(t)) {
      value[out] = next_value++;
      continue;
    }
    const auto kernel =
        t.kind == ThunkKind::kUnary ? reinterpret_cast<std::intptr_t>(t.k1)
        : t.kind == ThunkKind::kUnaryScalar
            ? reinterpret_cast<std::intptr_t>(t.k1s)
            : reinterpret_cast<std::intptr_t>(t.k2);
    // The scalar is an operand of kUnaryScalar only; other kinds may carry
    // a leftover from a fusion rewrite.
    const double scalar = t.kind == ThunkKind::kUnaryScalar ? t.scalar : 0.0;
    key.assign({static_cast<std::int64_t>(t.kind), kernel,
                std::bit_cast<std::int64_t>(scalar)});
    append_shape(key, t.out);
    for (const Tensor& in : t.ins) {
      key.push_back(static_cast<std::int64_t>(value_of(buf(in))));
      append_shape(key, in);
    }
    const auto [it, fresh] = seen.try_emplace(key, i);
    if (!fresh) {
      Thunk& e = ts[it->second];
      const BufKey earlier = buf(e.out);
      if (droppable.count(out) != 0) {
        rename.emplace(out, e.out);
        value[out] = value.at(earlier);
        erased[i] = 1;
        removed += 1;
        continue;
      }
      const BufInfo& later = bufs.at(out);
      if (droppable.count(earlier) != 0 && later.writes == 1 &&
          !later.read_before_write) {
        rename.emplace(earlier, t.out);
        e.out = t.out;
        value[out] = value.at(earlier);
        erased[i] = 1;
        removed += 1;
        continue;
      }
    }
    value[out] = next_value++;
    // Only a written-once output keeps its value for later matches.
    if (fresh && bufs.at(out).writes != 1) seen.erase(it);
  }
  if (removed == 0) return 0;

  // Renames chain at most through one retarget (a dropped copy's target
  // later moved onto a pinned buffer); pinned buffers are never renamed.
  std::vector<Thunk> kept;
  kept.reserve(ts.size() - removed);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (erased[i] != 0) continue;
    for (Tensor& in : ts[i].ins) {
      for (auto r = rename.find(buf(in)); r != rename.end();
           r = rename.find(buf(in))) {
        in = r->second.reshape(in.shape());
      }
    }
    kept.push_back(std::move(ts[i]));
  }
  ts = std::move(kept);
  return removed;
}

// ---- pass 4: liveness-based arena reuse -----------------------------------
//
// Computes each buffer's live interval [first write, last access] over the
// thunk sequence and greedily colors the interval graph per buffer-size
// class (interval partitioning: sorted by start, first free slot wins), so
// buffers whose lifetimes never overlap share one pinned storage. A buffer
// is only re-bound when the plan provably owns it (BufInfo::plan_owned) and
// it is not a declared output.

std::size_t reuse_arena(std::vector<Thunk>& ts,
                        const std::unordered_set<BufKey>& outputs) {
  const std::unordered_map<BufKey, BufInfo> bufs = analyze_buffers(ts);

  // Candidate set, grouped by element count (storage sharing goes through
  // Tensor::reshape, which requires numel preserved).
  std::unordered_map<std::int64_t, std::vector<const BufInfo*>> classes;
  for (const auto& [key, b] : bufs) {
    if (!b.plan_owned() || outputs.count(key) != 0) continue;
    classes[b.rep.numel()].push_back(&b);
  }

  struct Slot {
    Tensor owner;
    std::size_t busy_until;
  };
  std::unordered_map<BufKey, Tensor> rebind;
  std::size_t rebound = 0;
  for (auto& [numel, list] : classes) {
    std::sort(list.begin(), list.end(),
              [](const BufInfo* a, const BufInfo* b) {
                return a->first_def < b->first_def;
              });
    std::vector<Slot> slots;
    for (const BufInfo* b : list) {
      Slot* free_slot = nullptr;
      for (Slot& s : slots) {
        if (s.busy_until < b->first_def) {
          free_slot = &s;
          break;
        }
      }
      if (free_slot != nullptr) {
        rebind.emplace(buf(b->rep), free_slot->owner);
        free_slot->busy_until = b->last_use;
        rebound += 1;
      } else {
        slots.push_back(Slot{b->rep, b->last_use});
      }
    }
  }

  if (!rebind.empty()) {
    const auto fix = [&](Tensor& x) {
      const auto it = rebind.find(buf(x));
      if (it != rebind.end()) x = it->second.reshape(x.shape());
    };
    for (Thunk& t : ts) {
      fix(t.out);
      for (Tensor& in : t.ins) fix(in);
    }
  }
  return rebound;
}

}  // namespace

bool plan_opt_env_enabled() {
  std::string raw = env_string("QPINN_PLAN_OPT");
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
  throw ConfigError("QPINN_PLAN_OPT must be on/off (got \"" + raw + "\")");
}

PassStats optimize_plan(ExecutionPlan& plan,
                        const std::vector<Tensor>& outputs) {
  PassStats s;
  s.thunks_before = plan.size();
  s.arena_buffers_before = plan.arena_buffers();
  s.arena_bytes_before = plan.arena_bytes();

  std::unordered_set<BufKey> outs;
  outs.reserve(outputs.size());
  for (const Tensor& o : outputs) outs.insert(o.data());

  std::vector<Thunk> ts = plan.take_thunks();
  s.dead_eliminated = eliminate_dead_thunks(ts, outs);
  s.fused = fuse_elementwise(ts, outs);
  s.cse_eliminated = eliminate_common_subexpressions(ts, outs);
  s.buffers_rebound = reuse_arena(ts, outs);
  plan.set_thunks(std::move(ts));

  s.thunks_after = plan.size();
  s.arena_buffers_after = plan.arena_buffers();
  s.arena_bytes_after = plan.arena_bytes();
  plan.set_pass_stats(s);
  count_optimized(s);
  return s;
}

}  // namespace qpinn::autodiff::plan
