#include "autodiff/plan_passes.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tensor/kernels.hpp"
#include "util/error.hpp"
#include "util/invariant.hpp"

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

/// Drops the thunks flagged in `drop`, preserving order.
void drop_flagged(std::vector<Thunk>& ts, const std::vector<char>& drop) {
  std::vector<Thunk> kept;
  kept.reserve(ts.size());
  for (std::size_t idx = 0; idx < ts.size(); ++idx) {
    if (drop[idx] == 0) kept.push_back(std::move(ts[idx]));
  }
  ts = std::move(kept);
}

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// How a plan touches one buffer. Each read or write is one Tensor the
/// thunk array holds; an accumulation (reads_out) counts as both.
struct AccessCount {
  std::size_t writes = 0;
  std::size_t reads = 0;
  std::size_t first_write = kNever;  ///< thunk index
  std::size_t first_read = kNever;   ///< thunk index
  bool opaque = false;               ///< touched by an opaque closure

  /// Written exactly once and never read at or before that write.
  bool single_assignment() const {
    return writes == 1 && first_read > first_write;
  }
  /// Holds one value for the whole replay: an input the plan never
  /// writes, or a single assignment.
  bool stable() const { return writes == 0 || single_assignment(); }
};

std::unordered_map<BufKey, AccessCount> count_accesses(
    const std::vector<Thunk>& ts) {
  std::unordered_map<BufKey, AccessCount> acc;
  acc.reserve(ts.size() * 2);
  const auto read = [&](const Tensor& x, std::size_t i, bool opaque) {
    AccessCount& a = acc[buf(x)];
    a.reads += 1;
    a.first_read = std::min(a.first_read, i);
    a.opaque = a.opaque || opaque;
  };
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Thunk& t = ts[i];
    const bool opaque = t.kind == ThunkKind::kOpaque;
    for (const Tensor& in : t.ins) read(in, i, opaque);
    if (t.reads_out()) read(t.out, i, opaque);
    AccessCount& a = acc[buf(t.out)];
    a.writes += 1;
    a.first_write = std::min(a.first_write, i);
    a.opaque = a.opaque || opaque;
  }
  return acc;
}

// ---- pass 1: common-subexpression elimination ----------------------------
//
// Value numbering over the pure structured thunks. A buffer written at most
// once in the plan, and never read before that write, holds exactly one
// value per replay, so its identity IS its value number. Two pure thunks
// with the same kernel, kind, scalar bit pattern (0.0 and -0.0 differ),
// input buffers, input shapes and output shape therefore compute the same
// bits: every kernel is deterministic for a fixed ISA and pool size. The
// later one (the duplicate) is dropped and every later structured read of
// its output is redirected onto the earlier (canonical) buffer. Redirects
// are applied before a thunk is keyed, so chains collapse transitively:
// once sin(p) merges, mul(g, sin(p)) keys equal to its earlier twin too.
//
// A duplicate is merged only when its output is written once and not read
// before that write, is not a declared output, is not read by an opaque
// closure (its captured tensors cannot be redirected), and has no storage
// owner outside the plan (the host could observe the buffer going stale).

bool is_pure(const Thunk& t) {
  return t.kind == ThunkKind::kUnary || t.kind == ThunkKind::kUnaryScalar ||
         t.kind == ThunkKind::kBinary;
}

void hash_mix(std::size_t& h, std::size_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void hash_shape(std::size_t& h, const Tensor& x) {
  for (const std::int64_t d : x.shape()) {
    hash_mix(h, static_cast<std::size_t>(d));
  }
}

/// Hash and equality of a pure thunk's value key. Entries point at thunks
/// that stay in place (and unmodified) for the whole pass.
struct ValueHash {
  std::size_t operator()(const Thunk* t) const {
    std::size_t h = static_cast<std::size_t>(t->kind);
    hash_mix(h, std::hash<UnaryKernel>{}(t->k1));
    hash_mix(h, std::hash<UnaryScalarKernel>{}(t->k1s));
    hash_mix(h, std::hash<BinaryKernel>{}(t->k2));
    hash_mix(h, std::bit_cast<std::uint64_t>(t->scalar));
    for (const Tensor& in : t->ins) {
      hash_mix(h, std::hash<BufKey>{}(buf(in)));
      hash_shape(h, in);
    }
    hash_shape(h, t->out);
    return h;
  }
};

struct ValueEq {
  bool operator()(const Thunk* a, const Thunk* b) const {
    if (a->kind != b->kind || a->k1 != b->k1 || a->k1s != b->k1s ||
        a->k2 != b->k2 ||
        std::bit_cast<std::uint64_t>(a->scalar) !=
            std::bit_cast<std::uint64_t>(b->scalar) ||
        !a->out.same_shape(b->out) || a->ins.size() != b->ins.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a->ins.size(); ++i) {
      if (buf(a->ins[i]) != buf(b->ins[i]) ||
          !a->ins[i].same_shape(b->ins[i])) {
        return false;
      }
    }
    return true;
  }
};

std::size_t eliminate_common_subexpressions(
    std::vector<Thunk>& ts, const std::unordered_set<BufKey>& outputs) {
  const auto acc = count_accesses(ts);
  const auto access = [&](const Tensor& x) -> const AccessCount& {
    return acc.at(buf(x));
  };
  std::unordered_set<const Thunk*, ValueHash, ValueEq> values;
  values.reserve(ts.size());
  std::unordered_map<BufKey, Tensor> canonical;  // duplicate -> canonical
  std::vector<char> erased(ts.size(), 0);
  std::size_t removed = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    Thunk& t = ts[i];
    if (t.kind != ThunkKind::kOpaque && !canonical.empty()) {
      for (Tensor& in : t.ins) {
        const auto it = canonical.find(buf(in));
        if (it != canonical.end()) in = it->second.reshape(in.shape());
      }
    }
    if (!is_pure(t) || !access(t.out).single_assignment()) continue;
    if (!std::all_of(t.ins.begin(), t.ins.end(),
                     [&](const Tensor& in) { return access(in).stable(); })) {
      continue;
    }
    const auto [it, inserted] = values.insert(&t);
    if (inserted) continue;
    // A pure single write means `opaque` can only come from a read, and
    // every plan reference to the buffer is one of its reads or its write.
    const AccessCount& dup = access(t.out);
    if (outputs.count(buf(t.out)) != 0 || dup.opaque ||
        t.out.storage_use_count() != static_cast<long>(dup.reads + 1)) {
      continue;
    }
    canonical.emplace(buf(t.out), (*it)->out);
    erased[i] = 1;
    removed += 1;
  }
  if (removed != 0) drop_flagged(ts, erased);
  return removed;
}

// ---- pass 2: transpose->matmul fold ----------------------------------------
//
// Matmul backward computes grad_b = matmul(transpose(a), g), and every
// differentiation order repeats it. matmul_into(out, T, g) becomes
// matmul_tn_into(out, a, g) when T is written only by transpose_into(T, a)
// (single assignment) and `a` holds one value for the whole replay
// (stable()), so `a` at the matmul is the value the transpose read.
// matmul_tn runs the same per-element accumulation rule over the same row
// chunking as matmul (tensor/simd.hpp), so the bits are unchanged. A
// transpose left without readers dies in dead-thunk elimination; one that
// is a declared output or has other readers stays. Only the left operand
// folds: there is no a*b^T kernel with matmul's per-element chains.

std::size_t fold_transposed_matmuls(std::vector<Thunk>& ts) {
  const auto acc = count_accesses(ts);
  std::unordered_map<BufKey, std::size_t> transposes;  // T -> thunk index
  std::size_t folded = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    Thunk& t = ts[i];
    if (is_unary(t, &k::transpose_into)) {
      if (acc.at(buf(t.out)).single_assignment() &&
          acc.at(buf(t.ins[0])).stable()) {
        transposes.emplace(buf(t.out), i);
      }
      continue;
    }
    if (!is_binary(t, &k::matmul_into)) continue;
    const auto it = transposes.find(buf(t.ins[0]));
    if (it == transposes.end()) continue;
    const Thunk& tr = ts[it->second];
    if (!t.ins[0].same_shape(tr.out)) continue;
    t.k2 = &k::matmul_tn_into;
    t.ins[0] = tr.ins[0];
    folded += 1;
  }
  return folded;
}

// ---- pass 3: dead-thunk elimination ---------------------------------------
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
  std::vector<char> dead(ts.size(), 1);
  std::size_t removed = ts.size();
  for (std::size_t idx = ts.size(); idx-- > 0;) {
    const Thunk& t = ts[idx];
    const BufKey out = buf(t.out);
    if (live.count(out) == 0) continue;
    dead[idx] = 0;
    removed -= 1;
    if (!t.reads_out()) live.erase(out);
    for (const Tensor& in : t.ins) live.insert(buf(in));
  }
  drop_flagged(ts, dead);
  return removed;
}

// ---- pass 4: elementwise fusion -------------------------------------------
//
// Pattern-matches adjacent thunk runs whose intermediates are ephemeral —
// written once, read once (both inside the pattern), not a declared output,
// untouched by opaque closures — and rewrites them onto a fused kernel that
// performs the identical per-element IEEE operation sequence. Only
// bit-exact rewrites are applied: the fused FMA reductions
// (square_sum/weighted_square_sum) accumulate in a different order than
// their compositions and are deliberately NOT substituted (see the
// bit-identity discussion in DESIGN.md).

/// True when `x` is a bias row vector against rank-2 `a` (the shape class
/// bias_tanh_into/bias_sin_into accept).
bool is_bias_row(const Tensor& a, const Tensor& x) {
  if (a.rank() != 2) return false;
  return (x.rank() == 1 && x.numel() == a.cols()) ||
         (x.rank() == 2 && x.rows() == 1 && x.cols() == a.cols());
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
          is_bias_row(ts[i].ins[0], ts[i].ins[1]) &&
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
    drop_flagged(ts, erased);
  }
  return fused_total;
}

// ---- pass 5: liveness-based arena reuse -----------------------------------
//
// Computes each buffer's live interval [first write, last access] over the
// thunk sequence and greedily colors the interval graph per buffer-size
// class (interval partitioning: sorted by start, first free slot wins), so
// buffers whose lifetimes never overlap share one pinned storage. A buffer
// is only re-bound when the plan provably owns it: produced by a structured
// thunk, not a declared output, never read before its first in-plan write
// (that would make it an external input the host refreshes), untouched by
// opaque closures (their closures capture the original tensors), and with
// a storage use count exactly accounted for by the plan's own references —
// any outside observer blocks the move.

struct BufInfo {
  Tensor rep;
  bool has_rep = false;
  long plan_refs = 0;
  bool opaque = false;
  bool written = false;
  bool read_before_write = false;
  std::size_t first_def = 0;
  std::size_t last_use = 0;
};

std::size_t reuse_arena(std::vector<Thunk>& ts,
                        const std::unordered_set<BufKey>& outputs) {
  std::unordered_map<BufKey, BufInfo> bufs;
  const auto touch = [&](const Tensor& x) -> BufInfo& {
    BufInfo& b = bufs[buf(x)];
    if (!b.has_rep) {
      b.rep = x;
      b.has_rep = true;
    }
    return b;
  };
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Thunk& t = ts[i];
    const bool opaque = t.kind == ThunkKind::kOpaque;
    for (const Tensor& in : t.ins) {
      BufInfo& b = touch(in);
      if (!b.written) b.read_before_write = true;
      b.last_use = i;
      b.plan_refs += 1;
      b.opaque = b.opaque || opaque;
    }
    BufInfo& b = touch(t.out);
    if (t.reads_out() && !b.written) b.read_before_write = true;
    if (!b.written) {
      b.written = true;
      b.first_def = i;
    }
    b.last_use = i;
    b.plan_refs += 1;
    b.opaque = b.opaque || opaque;
  }

  // Candidate set, grouped by element count (storage sharing goes through
  // Tensor::reshape, which requires numel preserved).
  std::unordered_map<std::int64_t, std::vector<const BufInfo*>> classes;
  for (const auto& [key, b] : bufs) {
    if (!b.written || b.read_before_write || b.opaque) continue;
    if (outputs.count(key) != 0) continue;
    // +1: the `rep` copy held by this analysis. Anything beyond the plan's
    // own references means an outside owner could observe the buffer.
    if (b.rep.storage_use_count() != b.plan_refs + 1) continue;
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

// ---- structural check ------------------------------------------------------

void check_no_stale_reads(const std::vector<Thunk>& ts,
                          const std::string& after_pass) {
  std::unordered_set<BufKey> written;
  std::unordered_set<BufKey> read_first;
  const auto read = [&](const Tensor& x) {
    if (written.count(buf(x)) == 0) read_first.insert(buf(x));
  };
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Thunk& t = ts[i];
    for (const Tensor& in : t.ins) read(in);
    if (t.reads_out()) read(t.out);
    if (read_first.count(buf(t.out)) != 0) {
      throw InvariantError(
          "autodiff.plan_passes", "stale-read",
          "after pass '" + after_pass + "': thunk " + std::to_string(i) +
              " writes a buffer the plan reads before its first write");
    }
    written.insert(buf(t.out));
  }
}

}  // namespace

PassStats optimize_plan(ExecutionPlan& plan,
                        const std::vector<Tensor>& outputs) {
  PassStats s;
  s.thunks_before = plan.size();
  s.arena_buffers_before = plan.arena_buffers();
  s.arena_bytes_before = plan.arena_bytes();

  std::unordered_set<BufKey> outs;
  outs.reserve(outputs.size());
  for (const Tensor& o : outputs) outs.insert(o.data());

  const auto checked = [](const std::vector<Thunk>& ts, const char* pass) {
    if constexpr (checked_build()) check_no_stale_reads(ts, pass);
  };
  std::vector<Thunk> ts = plan.take_thunks();
  s.deduplicated = eliminate_common_subexpressions(ts, outs);
  checked(ts, "cse");
  s.folded = fold_transposed_matmuls(ts);
  checked(ts, "transpose-fold");
  s.dead_eliminated = eliminate_dead_thunks(ts, outs);
  checked(ts, "dead-thunk");
  s.fused = fuse_elementwise(ts, outs);
  checked(ts, "fusion");
  s.buffers_rebound = reuse_arena(ts, outs);
  checked(ts, "arena-reuse");
  plan.set_thunks(std::move(ts));

  s.thunks_after = plan.size();
  s.arena_buffers_after = plan.arena_buffers();
  s.arena_bytes_after = plan.arena_bytes();
  plan.set_pass_stats(s);
  count_optimized(s);
  return s;
}

void verify_plan(const ExecutionPlan& plan, const std::string& after_pass) {
  check_no_stale_reads(plan.thunks(), after_pass);
}

}  // namespace qpinn::autodiff::plan
