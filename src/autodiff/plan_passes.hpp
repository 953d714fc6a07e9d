// Optimizer passes over a captured ExecutionPlan.
//
// A finalized capture is a flat, topologically-ordered thunk array — an IR.
// The pipeline here runs ONCE at capture finalization (training plans and
// forward-only serving plans alike) and rewrites that IR without changing
// any replayed value:
//
//   1. Common-subexpression elimination — value numbering over the pure
//      structured thunks (unary, unary-scalar, binary). Higher-order
//      autodiff rebuilds the same values again and again: every
//      differentiation order re-derives cos(p)/sin(p) of one RFF projection
//      (the backward of sin is mul(g, cos(parent)) and vice versa), and
//      every matmul backward re-transposes the same activations. A thunk
//      whose kernel, scalar bit pattern, input buffers and shapes match an
//      earlier one is dropped and later reads of its output are redirected
//      onto the earlier buffer, so whole recomputed chains collapse.
//   2. Transpose->matmul fold — matmul backward multiplies by a
//      materialized transpose, matmul(transpose(a), g). When the
//      transpose's output is written once and `a` holds one value for the
//      whole replay, the matmul is rewritten onto matmul_tn(a, g), which
//      runs the same per-element accumulation on the same row chunking
//      (tensor/simd.hpp), so the bits are unchanged.
//   3. Dead-thunk elimination — a thunk whose output buffer is never read
//      by a later thunk and is not a bound plan output computes a value
//      nobody observes (e.g. forward values of zero-weight auxiliary loss
//      terms); drop it. Iterated to a fixpoint, since dropping a consumer
//      can kill its producers.
//   4. Elementwise fusion — adjacent pair/triple/quad sequences whose
//      intermediates die immediately are pattern-matched into the fused
//      `_into` kernels (tensor/kernels.hpp): add+tanh -> bias_tanh,
//      add+sin -> bias_sin, square+sum -> square_sum, the tanh-backward
//      chain square/neg/add_scalar/mul -> tanh_grad, scale/neg folded into
//      gradient-accumulation axpy scalars, and unit-scale copy+axpy -> add.
//      Every rewrite reuses a kernel whose bit-identity against the
//      composition it replaces is already part of the SIMD layer's
//      contract, so replay output is unchanged to the last bit.
//   5. Liveness-based arena reuse — buffer live intervals over the thunk
//      sequence are colored greedily (interval partitioning per buffer
//      size class) so non-overlapping lifetimes share one pinned arena
//      slot, shrinking arena_bytes(). Only buffers proven plan-private are
//      re-bound: produced by a structured thunk, not a declared output,
//      never read before their first write, untouched by opaque closures,
//      and with no storage owners outside the plan (storage_use_count()
//      equals the plan-internal reference count).
//
// Ordering matters. CSE runs first because it keys on buffer identity: a
// buffer written exactly once holds exactly one value per replay, so equal
// keys mean equal bits. Arena reuse makes buffers multi-write, which would
// hide every merge. Running CSE before dead-thunk elimination also lets
// the producers of merged-away chains die there. The fold runs after CSE,
// so one merged transpose serves every matmul that reads it, and before
// dead-thunk elimination, so transposes it leaves without readers die
// there. It must run before arena reuse for the same reason as CSE: its
// single-assignment and stable() checks key on buffers written once, and
// it lengthens `a`'s live range to the matmul, which the liveness
// analysis has to see. Fusion runs before liveness because fusing shortens
// live ranges (intermediates disappear), which is exactly what makes
// interval coloring effective; liveness runs last because re-binding
// invalidates the buffer-identity facts the earlier passes key on.
//
// After every pass, checked builds (QPINN_CHECKED) run verify_plan's
// structural check over the rewritten thunk array.
//
// Every finalized capture is optimized: plan owners call
// autodiff::finalize_plan (autodiff/precision.hpp), which runs this
// pipeline and then, in mixed precision, the demotion pass.
#pragma once

#include <string>
#include <vector>

#include "autodiff/plan.hpp"
#include "tensor/tensor.hpp"

namespace qpinn::autodiff::plan {

/// Runs the pass pipeline over `plan`. `outputs` are the buffers the host
/// reads after replay (loss/gradient/aux tensors, the serving output) —
/// they keep their identity and final value. Buffers the host refreshes in
/// place before replay (batch points, curriculum weights, parameters, the
/// serving input) need no declaration: the passes detect them as external
/// inputs because the plan reads them before writing them. Returns the
/// per-plan statistics, which are also stored on the plan and aggregated
/// into plan_stats().
PassStats optimize_plan(ExecutionPlan& plan,
                        const std::vector<Tensor>& outputs);

/// Structural check of a plan (a first slice of a full plan verifier): a
/// buffer the plan reads before its first write is an input refreshed
/// between replays, so no later thunk may write it — a read from the
/// previous replay would silently go stale. This is the hazard a wrong
/// redirect or re-binding would create. Throws InvariantError (site
/// "autodiff.plan_passes", category "stale-read") naming `after_pass` and
/// the offending thunk index.
void verify_plan(const ExecutionPlan& plan, const std::string& after_pass);

}  // namespace qpinn::autodiff::plan
