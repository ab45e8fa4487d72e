#include "autodiff/plan_passes.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tensor/kernels.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace qpinn::autodiff::plan {

namespace {

namespace k = qpinn::kernels;

using Thunks = std::vector<RecordedThunk>;
/// One flag per recorded buffer id.
using BufFlags = std::vector<char>;

bool is_unary(const RecordedThunk& t, UnaryKernel f) {
  return t.kind == ThunkKind::kUnary && t.k1 == f;
}
bool is_unary_scalar(const RecordedThunk& t, UnaryScalarKernel f) {
  return t.kind == ThunkKind::kUnaryScalar && t.k1s == f;
}
bool is_binary(const RecordedThunk& t, BinaryKernel f) {
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

std::size_t eliminate_dead_thunks(Thunks& ts, const BufFlags& outputs) {
  BufFlags live = outputs;
  std::vector<char> keep(ts.size(), 0);
  for (std::size_t idx = ts.size(); idx-- > 0;) {
    const RecordedThunk& t = ts[idx];
    if (live[t.out.buf] == 0) continue;
    keep[idx] = 1;
    if (!t.reads_out()) live[t.out.buf] = 0;
    for (const Operand& in : t.ins) live[in.buf] = 1;
  }
  Thunks kept;
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
// written once, read once (both inside the pattern) and not a declared
// output — and rewrites them onto a fused kernel that performs the
// identical per-element IEEE operation sequence. Only bit-exact rewrites
// are applied: the fused FMA reductions (square_sum/weighted_square_sum)
// accumulate in a different order than their compositions and are
// deliberately NOT substituted (see the bit-identity discussion in
// DESIGN.md).

struct AccessCount {
  std::size_t writes = 0;
  std::size_t reads = 0;
};

std::vector<AccessCount> count_accesses(const Thunks& ts, std::size_t bufs) {
  std::vector<AccessCount> acc(bufs);
  for (const RecordedThunk& t : ts) {
    for (const Operand& in : t.ins) acc[in.buf].reads += 1;
    AccessCount& a = acc[t.out.buf];
    a.writes += 1;
    if (t.reads_out()) a.reads += 1;
  }
  return acc;
}

std::size_t fuse_elementwise(Thunks& ts, const BufFlags& outputs) {
  std::size_t fused_total = 0;
  for (int round = 0; round < 8; ++round) {
    const auto acc = count_accesses(ts, outputs.size());
    const auto ephemeral = [&](const Operand& x) {
      return outputs[x.buf] == 0 && acc[x.buf].writes == 1 &&
             acc[x.buf].reads == 1;
    };
    // `links(p, c, slot)` — p's output feeds exactly c's input `slot` and
    // dies there.
    const auto links = [&](const RecordedThunk& p, const RecordedThunk& c,
                           std::size_t slot) {
      return slot < c.ins.size() && c.ins[slot].buf == p.out.buf &&
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
          ts[i + 3].ins[0].shape == ts[i].ins[0].shape &&
          ts[i + 3].out.shape == ts[i + 3].ins[0].shape) {
        RecordedThunk& m = ts[i + 3];
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
          is_row_vector_of(ts[i].ins[1].shape, ts[i].ins[0].shape) &&
          ts[i].out.shape == ts[i].ins[0].shape) {
        RecordedThunk& act = ts[i + 1];
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
        RecordedThunk& c = ts[i + 1];
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
          ts[i].ins[0].shape == ts[i].ins[1].shape &&
          ts[i].out.shape == ts[i].ins[0].shape) {
        RecordedThunk& t = ts[i];
        t.kind = ThunkKind::kBinary;
        t.k2 = &k::add_into;
        fused_round += 1;
        continue;
      }
    }

    if (fused_round == 0) break;
    fused_total += fused_round;
    Thunks kept;
    kept.reserve(ts.size());
    for (std::size_t idx = 0; idx < ts.size(); ++idx) {
      if (erased[idx] == 0) kept.push_back(std::move(ts[idx]));
    }
    ts = std::move(kept);
  }
  return fused_total;
}

// ---- pass 3: liveness-based arena reuse -----------------------------------
//
// Computes each buffer's live interval [first write, last access] over the
// thunk sequence and greedily colors the interval graph per buffer-size
// class (interval partitioning: sorted by start, first free slot wins), so
// buffers whose lifetimes never overlap share one arena slot. Only
// plan-owned buffers (BufInfo::plan_owned) are colored. Returns the slot of
// every buffer id (itself unless it shares another's), which is what
// ExecutionPlan::bind_buffers allocates from.

/// One buffer's accesses over the thunk sequence.
struct BufInfo {
  bool written = false;
  bool read_before_write = false;
  bool plan_owned = false;
  std::size_t first_def = 0;
  std::size_t last_use = 0;
};

/// Access facts per buffer id. A buffer is plan-owned when only the plan
/// can observe it: written by a thunk before any thunk reads it (else it is
/// an external input the host refreshes), not a declared output, and not
/// held by the host (`held`, ExecutionPlan::host_holds).
std::vector<BufInfo> analyze_buffers(const Thunks& ts, const BufFlags& outputs,
                                     const BufFlags& held) {
  std::vector<BufInfo> bufs(outputs.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const RecordedThunk& t = ts[i];
    for (const Operand& in : t.ins) {
      BufInfo& b = bufs[in.buf];
      if (!b.written) b.read_before_write = true;
      b.last_use = i;
    }
    BufInfo& b = bufs[t.out.buf];
    if (t.reads_out() && !b.written) b.read_before_write = true;
    if (!b.written) b.first_def = i;
    b.written = true;
    b.last_use = i;
  }
  for (std::size_t id = 0; id < bufs.size(); ++id) {
    BufInfo& b = bufs[id];
    b.plan_owned = b.written && !b.read_before_write && outputs[id] == 0 &&
                   held[id] == 0;
  }
  return bufs;
}

std::vector<BufId> reuse_arena(const std::vector<BufInfo>& bufs,
                               const ExecutionPlan& plan) {
  std::vector<BufId> slot_of(bufs.size());
  // Candidate set, grouped by element count (a slot is one storage, viewed
  // under each member's shape).
  std::map<std::int64_t, std::vector<BufId>> classes;
  for (BufId id = 0; id < bufs.size(); ++id) {
    slot_of[id] = id;
    if (bufs[id].plan_owned) classes[plan.buffer_numel(id)].push_back(id);
  }

  struct Slot {
    BufId owner;
    std::size_t busy_until;
  };
  for (auto& [numel, list] : classes) {
    std::sort(list.begin(), list.end(), [&](BufId a, BufId b) {
      return bufs[a].first_def < bufs[b].first_def;
    });
    std::vector<Slot> slots;
    for (const BufId id : list) {
      Slot* free_slot = nullptr;
      for (Slot& s : slots) {
        if (s.busy_until < bufs[id].first_def) {
          free_slot = &s;
          break;
        }
      }
      if (free_slot != nullptr) {
        slot_of[id] = free_slot->owner;
        free_slot->busy_until = bufs[id].last_use;
      } else {
        slots.push_back(Slot{id, bufs[id].last_use});
      }
    }
  }
  return slot_of;
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
  QPINN_CHECK(!plan.bound(),
              "optimize_plan: the plan's storage is already bound; the "
              "passes run once, on the recorded capture");
  PassStats s;
  s.thunks_before = plan.size();
  s.arena_buffers_before = plan.arena_buffers();
  s.arena_bytes_before = plan.arena_bytes();

  // Ownership is decided once, before the passes: declared outputs, and
  // buffers the host holds, are observable and keep their storage.
  const std::size_t n = plan.buffer_count();
  BufFlags outs(n, 0), held(n, 0);
  for (const Tensor& o : outputs) {
    const BufId id = plan.buffer_of(o);
    if (id != kNoBuffer) outs[id] = 1;
  }
  for (BufId id = 0; id < n; ++id) held[id] = plan.host_holds(id) ? 1 : 0;

  Thunks ts = plan.take_recorded();
  s.dead_eliminated = eliminate_dead_thunks(ts, outs);
  s.fused = fuse_elementwise(ts, outs);
  const std::vector<BufId> slots =
      reuse_arena(analyze_buffers(ts, outs, held), plan);
  for (BufId id = 0; id < n; ++id) s.buffers_rebound += slots[id] != id;
  plan.bind_buffers(std::move(ts), slots);

  s.thunks_after = plan.size();
  s.arena_buffers_after = plan.arena_buffers();
  s.arena_bytes_after = plan.arena_bytes();
  plan.set_pass_stats(s);
  count_optimized(s);
  return s;
}

}  // namespace qpinn::autodiff::plan
