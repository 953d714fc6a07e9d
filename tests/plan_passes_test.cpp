// Tests for the plan-optimizer pass pipeline (autodiff/plan_passes.hpp).
//
// The contract under test: optimize_plan rewrites a captured thunk array —
// common-subexpression elimination, dead-thunk elimination, elementwise
// fusion onto the bit-identical fused kernels, liveness-based arena reuse —
// without changing ANY replayed value.
// Replay with the passes on stays bit-identical to eager under every SIMD
// variant (serial, parallel shards, curriculum, per-epoch resampling), the
// TDSE training plan provably shrinks in both thunk count and arena bytes,
// and an optimized serving plan agrees with its verbatim capture.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/plan_passes.hpp"
#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/trainer.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/compiled_model.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"
#include "util/invariant.hpp"

#include "test_guards.hpp"

namespace qpinn::core {
namespace {

namespace ad = qpinn::autodiff;
namespace plan = qpinn::autodiff::plan;

/// Small, fast configuration with a FIXED collocation set (mirrors
/// plan_test.cpp; the resample test turns resampling back on).
TrainConfig passes_config(std::int64_t epochs) {
  TrainConfig config = default_train_config(epochs, /*seed=*/7);
  config.resample_every = 0;
  config.sampling.n_interior_x = 8;
  config.sampling.n_interior_t = 8;
  config.sampling.n_initial = 16;
  config.sampling.n_boundary = 8;
  config.metric_nx = 16;
  config.metric_nt = 8;
  return config;
}

std::shared_ptr<FieldModel> tiny_model(const SchrodingerProblem& problem,
                                       std::uint64_t seed) {
  FieldModelConfig config = default_model_config(problem, seed);
  config.hidden = {12, 12};
  config.fourier = nn::FourierConfig{6, 1.0};
  config.hard_ic = HardIc{problem.config().initial, problem.domain().t_lo};
  return make_field_model(config);
}

std::vector<double> run_steps(
    const std::shared_ptr<SchrodingerProblem>& problem,
    const TrainConfig& base, GraphMode mode, std::int64_t steps,
    std::uint64_t seed) {
  TrainConfig config = base;
  config.graph = mode;
  auto model = tiny_model(*problem, seed);
  Trainer trainer(problem, model, config);
  std::vector<double> losses;
  losses.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t e = 0; e < steps; ++e) {
    losses.push_back(trainer.step(e).total_loss);
  }
  return losses;
}

void expect_bit_identical(const std::vector<double>& eager,
                          const std::vector<double>& replay) {
  ASSERT_EQ(eager.size(), replay.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    ASSERT_TRUE(std::isfinite(eager[i]));
    EXPECT_EQ(eager[i], replay[i]) << "diverged at step " << i;
  }
}

/// Number of thunks in `p` running unary kernel `f` on an input with
/// `cols` columns.
std::size_t count_unary(const plan::ExecutionPlan& p, plan::UnaryKernel f,
                        std::int64_t cols) {
  std::size_t n = 0;
  for (const plan::Thunk& t : p.thunks()) {
    if (t.kind == plan::ThunkKind::kUnary && t.k1 == f &&
        t.ins[0].rank() == 2 && t.ins[0].cols() == cols) {
      ++n;
    }
  }
  return n;
}

/// Bitwise equality (distinguishes 0.0 from -0.0, unlike ==).
void expect_same_bits(const Tensor& want, const Tensor& got) {
  ASSERT_TRUE(want.same_shape(got));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << "element " << i;
  }
}

// --- unit: dead-thunk elimination -------------------------------------------

// A forward chain whose second branch is never declared an output must be
// dropped transitively (producer AND consumer of the dead intermediate), and
// the surviving chain must still replay correct values; the dead buffer goes
// stale instead of being recomputed.
TEST(PlanPassesUnit, DeadThunksEliminatedTransitively) {
  Rng rng(3);
  Tensor x = Tensor::randn({8, 8}, rng);
  Tensor live_out, dead_out;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable xv = ad::Variable::constant(x);
    live_out = ad::tanh(xv).value();
    dead_out = ad::exp(ad::square(xv)).value();  // two thunks, never read
  }
  ASSERT_EQ(p.size(), 3u);
  const plan::PassStats stats = plan::optimize_plan(p, {live_out});
  EXPECT_EQ(stats.dead_eliminated, 2u);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(stats.thunks_before, 3u);
  EXPECT_EQ(stats.thunks_after, 1u);

  // New inputs, replay: the live output matches the eager kernel bitwise;
  // the dead buffer keeps its pre-replay contents.
  const Tensor stale = dead_out.clone();
  kernels::copy_into(x, Tensor::randn({8, 8}, rng));
  p.replay();
  const Tensor want = kernels::tanh(x);
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(live_out[i], want[i]) << "element " << i;
    EXPECT_EQ(dead_out[i], stale[i]) << "dead buffer recomputed at " << i;
  }
}

// --- unit: elementwise fusion ----------------------------------------------

// The tanh-backward quad square -> neg -> add_scalar(1.0) -> mul must
// collapse onto the fused tanh_grad kernel, and the fused plan must replay
// the gradient bit-identically to the verbatim capture.
TEST(PlanPassesUnit, TanhBackwardQuadFusesOntoTanhGrad) {
  Rng rng(5);
  Tensor x = Tensor::randn({16, 4}, rng);

  auto capture = [&](plan::ExecutionPlan& p, Tensor& grad_out) {
    plan::CaptureScope scope(p);
    const ad::Variable xv = ad::Variable::leaf(x);
    const ad::Variable loss = ad::sum_all(ad::tanh(xv));
    grad_out = ad::grad(loss, {xv})[0].value();
    return loss.value();
  };

  plan::ExecutionPlan verbatim, fused;
  Tensor verbatim_grad, fused_grad;
  capture(verbatim, verbatim_grad);
  capture(fused, fused_grad);
  const plan::PassStats stats = plan::optimize_plan(fused, {fused_grad});
  EXPECT_GE(stats.fused, 3u);  // at least the quad collapsed
  EXPECT_LT(fused.size(), verbatim.size());
  bool has_tanh_grad = false;
  for (const plan::Thunk& t : fused.thunks()) {
    if (t.kind == plan::ThunkKind::kBinary &&
        t.k2 == &kernels::tanh_grad_into) {
      has_tanh_grad = true;
    }
  }
  EXPECT_TRUE(has_tanh_grad);

  kernels::copy_into(x, Tensor::randn({16, 4}, rng));
  verbatim.replay();
  fused.replay();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(fused_grad[i], verbatim_grad[i]) << "element " << i;
  }
}

// --- unit: liveness-based arena reuse ---------------------------------------

// In a chain a -> b -> c -> out of same-shape unary ops, `c`'s live interval
// starts after `a`'s ends, so `c` must be re-bound onto `a`'s storage and the
// arena must shrink by exactly one buffer — with replayed values unchanged.
TEST(PlanPassesUnit, DisjointLifetimesShareArenaStorage) {
  Rng rng(9);
  Tensor x = Tensor::randn({32, 8}, rng);
  Tensor out;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable xv = ad::Variable::constant(x);
    out = ad::sin(ad::exp(ad::tanh(ad::square(xv)))).value();
  }
  ASSERT_EQ(p.size(), 4u);
  const std::size_t buffers_before = p.arena_buffers();
  const std::size_t bytes_before = p.arena_bytes();
  const plan::PassStats stats = plan::optimize_plan(p, {out});
  EXPECT_EQ(stats.buffers_rebound, 1u);
  EXPECT_EQ(p.arena_buffers(), buffers_before - 1);
  EXPECT_LT(p.arena_bytes(), bytes_before);
  EXPECT_EQ(p.size(), 4u);  // nothing fused or dead in this chain

  kernels::copy_into(x, Tensor::randn({32, 8}, rng));
  p.replay();
  const Tensor want =
      kernels::sin(kernels::exp(kernels::tanh(kernels::square(x))));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(out[i], want[i]) << "element " << i;
  }
}

// A buffer with an owner outside the plan must NOT be re-bound, even when
// its interval is free: the host observes it between replays.
TEST(PlanPassesUnit, ExternallyObservedBufferIsNeverRebound) {
  Rng rng(11);
  Tensor x = Tensor::randn({32, 8}, rng);
  Tensor out, held;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable xv = ad::Variable::constant(x);
    const ad::Variable a = ad::square(xv);
    held = a.value();  // outside owner, NOT declared an output
    out = ad::sin(ad::exp(ad::tanh(a))).value();
  }
  const plan::PassStats stats = plan::optimize_plan(p, {out});
  // The chain would allow one rebind (see DisjointLifetimesShareArenaStorage)
  // but the only free-interval candidate pair involves `held`'s buffer as
  // the slot owner; the sin output may still land on the tanh buffer.
  kernels::copy_into(x, Tensor::randn({32, 8}, rng));
  p.replay();
  const Tensor want_held = kernels::square(x);
  for (std::int64_t i = 0; i < want_held.numel(); ++i) {
    ASSERT_EQ(held[i], want_held[i]) << "held buffer clobbered at " << i;
  }
  const Tensor want =
      kernels::sin(kernels::exp(kernels::tanh(kernels::square(x))));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(out[i], want[i]) << "element " << i;
  }
  (void)stats;
}

// --- unit: common-subexpression elimination --------------------------------

// Duplicate unary, unary-scalar and binary thunks merge onto the first
// computation, and the readers of each duplicate are redirected onto the
// surviving buffer — with replayed values unchanged.
TEST(PlanPassesUnit, DuplicateThunksMergeAndReadersRedirect) {
  Rng rng(17);
  Tensor x = Tensor::randn({8, 4}, rng);
  Tensor y = Tensor::randn({8, 4}, rng);
  std::vector<Tensor> outs;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable xv = ad::Variable::constant(x);
    const ad::Variable yv = ad::Variable::constant(y);
    outs.push_back(ad::add(ad::exp(xv), ad::exp(xv)).value());
    outs.push_back(ad::mul(ad::scale(xv, 3.0), ad::scale(xv, 3.0)).value());
    outs.push_back(ad::sub(ad::mul(xv, yv), ad::mul(xv, yv)).value());
  }
  ASSERT_EQ(p.size(), 9u);
  const plan::PassStats stats = plan::optimize_plan(p, outs);
  EXPECT_EQ(stats.deduplicated, 3u);
  EXPECT_EQ(stats.thunks_after, 6u);
  EXPECT_NO_THROW(plan::verify_plan(p, "test"));
  std::size_t redirected = 0;
  for (const plan::Thunk& t : p.thunks()) {
    for (const Tensor& o : outs) {
      if (t.out.data() != o.data()) continue;
      EXPECT_EQ(t.ins[0].data(), t.ins[1].data());
      ++redirected;
    }
  }
  EXPECT_EQ(redirected, 3u);

  kernels::copy_into(x, Tensor::randn({8, 4}, rng));
  kernels::copy_into(y, Tensor::randn({8, 4}, rng));
  p.replay();
  const Tensor e = kernels::exp(x);
  const Tensor s = kernels::scale(x, 3.0);
  const Tensor m = kernels::mul(x, y);
  expect_same_bits(kernels::add(e, e), outs[0]);
  expect_same_bits(kernels::mul(s, s), outs[1]);
  expect_same_bits(kernels::sub(m, m), outs[2]);
}

// The higher-order-autodiff pattern: sin(p)/cos(p) of one projection and
// their product, recomputed twice. Redirects apply before keying, so the
// downstream mul merges too and one sin and one cos remain.
TEST(PlanPassesUnit, SinCosPairRecomputedTwiceCollapsesTransitively) {
  Rng rng(19);
  Tensor x = Tensor::randn({16, 6}, rng);
  Tensor w = Tensor::randn({16, 6}, rng);
  Tensor out;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable proj =
        ad::mul(ad::Variable::constant(x), ad::Variable::constant(w));
    const ad::Variable first = ad::mul(ad::sin(proj), ad::cos(proj));
    const ad::Variable second = ad::mul(ad::sin(proj), ad::cos(proj));
    out = ad::add(first, second).value();
  }
  ASSERT_EQ(p.size(), 8u);
  ASSERT_EQ(count_unary(p, &kernels::sin_into, 6), 2u);
  const plan::PassStats stats = plan::optimize_plan(p, {out});
  EXPECT_EQ(stats.deduplicated, 3u);
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(count_unary(p, &kernels::sin_into, 6), 1u);
  EXPECT_EQ(count_unary(p, &kernels::cos_into, 6), 1u);
  EXPECT_NO_THROW(plan::verify_plan(p, "test"));

  kernels::copy_into(x, Tensor::randn({16, 6}, rng));
  p.replay();
  const Tensor proj = kernels::mul(x, w);
  const Tensor m = kernels::mul(kernels::sin(proj), kernels::cos(proj));
  expect_same_bits(kernels::add(m, m), out);
}

// Builds the same hand-made plan twice and optimizes one copy: the pass
// counted by `rewrites` (CSE by default) must rewrite nothing, and every
// returned tensor must replay bit-identically to the verbatim copy. The
// first `declared` tensors are the plan outputs; the rest are held by the
// host without being declared.
void expect_no_merge(
    const std::function<std::vector<Tensor>(plan::ExecutionPlan&)>& build,
    std::size_t declared,
    std::size_t plan::PassStats::*rewrites = &plan::PassStats::deduplicated) {
  plan::ExecutionPlan verbatim, optimized;
  const std::vector<Tensor> want = build(verbatim);
  const std::vector<Tensor> got = build(optimized);
  const std::vector<Tensor> outputs(
      got.begin(), got.begin() + static_cast<std::ptrdiff_t>(declared));
  const plan::PassStats stats = plan::optimize_plan(optimized, outputs);
  EXPECT_EQ(stats.*rewrites, 0u);
  EXPECT_NO_THROW(plan::verify_plan(optimized, "test"));
  verbatim.replay();
  optimized.replay();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("tensor " + std::to_string(i));
    expect_same_bits(want[i], got[i]);
  }
}

TEST(PlanPassesUnit, CseRefusesUnsafeMerges) {
  Rng rng(23);
  const Tensor x = Tensor::randn({8, 4}, rng);
  const Tensor y = Tensor::randn({8, 4}, rng);
  const ad::Variable xv = ad::Variable::constant(x);
  const auto zeros = [] { return Tensor::zeros({8, 4}); };

  {
    SCOPED_TRACE("scalars 0.0 and -0.0 differ in bits");
    expect_no_merge(
        [&](plan::ExecutionPlan& p) {
          plan::CaptureScope scope(p);
          ad::NoGradGuard no_grad;
          const ad::Variable pos = ad::scale(xv, 0.0);
          const ad::Variable neg = ad::scale(xv, -0.0);
          return std::vector<Tensor>{ad::div(ad::exp(pos), neg).value()};
        },
        1);
  }
  {
    SCOPED_TRACE("input written twice (an axpy accumulator)");
    expect_no_merge(
        [&](plan::ExecutionPlan& p) {
          plan::CaptureScope scope(p);
          Tensor acc = zeros(), before = zeros(), after = zeros();
          Tensor out = zeros();
          plan::record_copy_axpy(acc, x, 1.0, y);
          plan::record_unary(before, &kernels::exp_into, acc);
          plan::record_axpy_acc(acc, 1.0, y);
          plan::record_unary(after, &kernels::exp_into, acc);
          plan::record_binary(out, &kernels::sub_into, before, after);
          return std::vector<Tensor>{out};
        },
        1);
  }
  {
    SCOPED_TRACE("duplicate is a declared output");
    expect_no_merge(
        [&](plan::ExecutionPlan& p) {
          plan::CaptureScope scope(p);
          ad::NoGradGuard no_grad;
          return std::vector<Tensor>{ad::exp(xv).value(),
                                     ad::exp(xv).value()};
        },
        2);
  }
  {
    SCOPED_TRACE("duplicate read by an opaque thunk");
    expect_no_merge(
        [&](plan::ExecutionPlan& p) {
          plan::CaptureScope scope(p);
          Tensor first = zeros(), dup = zeros(), out = zeros();
          plan::record_unary(first, &kernels::exp_into, x);
          plan::record_unary(dup, &kernels::exp_into, x);
          plan::record_opaque(out, {dup}, [out, dup]() mutable {
            kernels::copy_into(out, dup);
          });
          return std::vector<Tensor>{first, out};
        },
        2);
  }
  {
    SCOPED_TRACE("duplicate held by the host, undeclared");
    expect_no_merge(
        [&](plan::ExecutionPlan& p) {
          plan::CaptureScope scope(p);
          ad::NoGradGuard no_grad;
          const ad::Variable first = ad::exp(xv);
          const ad::Variable held = ad::exp(xv);
          return std::vector<Tensor>{ad::add(first, held).value(),
                                     held.value()};
        },
        1);
  }
}

// --- unit: transpose->matmul fold -------------------------------------------

/// Number of thunks in `p` running binary kernel `f`.
std::size_t count_binary(const plan::ExecutionPlan& p, plan::BinaryKernel f) {
  std::size_t n = 0;
  for (const plan::Thunk& t : p.thunks()) {
    if (t.kind == plan::ThunkKind::kBinary && t.k2 == f) ++n;
  }
  return n;
}

// matmul(transpose(x), g) — the matmul-backward shape — becomes one
// matmul_tn reading x in place; the transpose loses its only reader and
// dies, and the replayed product keeps every bit.
TEST(PlanPassesUnit, TransposeMatmulFoldsOntoMatmulTn) {
  Rng rng(37);
  Tensor x = Tensor::randn({18, 5}, rng);
  Tensor g = Tensor::randn({18, 9}, rng);
  Tensor out;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    out = ad::matmul(ad::transpose(ad::Variable::constant(x)),
                     ad::Variable::constant(g))
              .value();
  }
  ASSERT_EQ(p.size(), 2u);
  const plan::PassStats stats = plan::optimize_plan(p, {out});
  EXPECT_EQ(stats.folded, 1u);
  EXPECT_EQ(stats.dead_eliminated, 1u);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(count_unary(p, &kernels::transpose_into, 5), 0u);
  ASSERT_EQ(count_binary(p, &kernels::matmul_tn_into), 1u);
  EXPECT_EQ(p.thunks()[0].ins[0].data(), x.data());
  EXPECT_NO_THROW(plan::verify_plan(p, "test"));

  kernels::copy_into(x, Tensor::randn({18, 5}, rng));
  kernels::copy_into(g, Tensor::randn({18, 9}, rng));
  p.replay();
  expect_same_bits(kernels::matmul(kernels::transpose(x), g), out);
}

TEST(PlanPassesUnit, TransposeMatmulFoldRefusesUnsafeOperands) {
  Rng rng(41);
  const Tensor x = Tensor::randn({12, 4}, rng);
  const Tensor y = Tensor::randn({12, 4}, rng);
  const Tensor g = Tensor::randn({12, 3}, rng);
  const Tensor w = Tensor::randn({6, 4}, rng);
  constexpr auto kFolded = &plan::PassStats::folded;

  {
    SCOPED_TRACE("operand rewritten between transpose and matmul");
    expect_no_merge(
        [&](plan::ExecutionPlan& p) {
          plan::CaptureScope scope(p);
          Tensor acc = Tensor::zeros({12, 4});
          Tensor t = Tensor::zeros({4, 12});
          Tensor out = Tensor::zeros({4, 3});
          plan::record_copy_axpy(acc, x, 1.0, y);
          plan::record_unary(t, &kernels::transpose_into, acc);
          plan::record_axpy_acc(acc, 1.0, y);  // acc now holds x + 2y
          plan::record_binary(out, &kernels::matmul_into, t, g);
          return std::vector<Tensor>{out, acc};
        },
        2, kFolded);
  }
  {
    SCOPED_TRACE("transpose as the right operand");
    expect_no_merge(
        [&](plan::ExecutionPlan& p) {
          plan::CaptureScope scope(p);
          ad::NoGradGuard no_grad;
          const ad::Variable t = ad::transpose(ad::Variable::constant(x));
          return std::vector<Tensor>{
              ad::matmul(ad::Variable::constant(w), t).value()};
        },
        1, kFolded);
  }
}

// A transpose that is itself a declared output keeps its thunk (and its
// value); the matmul reading it still folds.
TEST(PlanPassesUnit, DeclaredTransposeOutputSurvivesTheFold) {
  Rng rng(43);
  Tensor x = Tensor::randn({10, 6}, rng);
  const Tensor g = Tensor::randn({10, 8}, rng);
  Tensor t, out;
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    ad::NoGradGuard no_grad;
    const ad::Variable tv = ad::transpose(ad::Variable::constant(x));
    t = tv.value();
    out = ad::matmul(tv, ad::Variable::constant(g)).value();
  }
  const plan::PassStats stats = plan::optimize_plan(p, {out, t});
  EXPECT_EQ(stats.folded, 1u);
  EXPECT_EQ(count_unary(p, &kernels::transpose_into, 6), 1u);
  EXPECT_EQ(count_binary(p, &kernels::matmul_tn_into), 1u);

  kernels::copy_into(x, Tensor::randn({10, 6}, rng));
  p.replay();
  const Tensor want_t = kernels::transpose(x);
  expect_same_bits(want_t, t);
  expect_same_bits(kernels::matmul(want_t, g), out);
}

// --- unit: structural check -------------------------------------------------

// A plan that reads a buffer before its first write and writes it later
// would replay a stale value — the hazard a wrong CSE redirect creates. The
// check names the pass and the offending thunk.
TEST(PlanPassesUnit, VerifierRejectsWriteAfterEarlyRead) {
  Rng rng(29);
  const Tensor x = Tensor::randn({8, 4}, rng);
  plan::ExecutionPlan p;
  {
    plan::CaptureScope scope(p);
    Tensor early = Tensor::zeros({8, 4});
    Tensor out = Tensor::zeros({8, 4});
    Tensor other = Tensor::zeros({8, 4});
    plan::record_unary(other, &kernels::tanh_into, x);
    plan::record_unary(out, &kernels::exp_into, early);  // read, unwritten
    plan::record_unary(early, &kernels::sin_into, x);    // thunk 2 writes it
  }
  try {
    plan::verify_plan(p, "hand-corrupted");
    ADD_FAILURE() << "verify_plan accepted a stale read";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.site(), "autodiff.plan_passes");
    EXPECT_EQ(e.category(), "stale-read");
    const std::string what = e.what();
    EXPECT_NE(what.find("hand-corrupted"), std::string::npos) << what;
    EXPECT_NE(what.find("thunk 2"), std::string::npos) << what;
  }
}

// --- pinned plan sizes ------------------------------------------------------

// Exact before/after sizes of reference plans under the full pass pipeline.
// The counts are deterministic, so a change to capture or to a pass that
// moves one must update the constant here, in the same diff.

// A 2 -> 64 -> 64 -> 1 tanh MLP with a mean-square head on 256 rows: the
// forward plan and the loss + gradient step plan.
TEST(PlanPassesPinned, MlpForwardAndStepPlans) {
  PrecisionGuard precision_guard;
  Rng rng(7);
  const std::vector<ad::Variable> params{
      ad::Variable::leaf(Tensor::randn({2, 64}, rng, 0.0, 0.3)),
      ad::Variable::leaf(Tensor::zeros({1, 64})),
      ad::Variable::leaf(Tensor::randn({64, 64}, rng, 0.0, 0.3)),
      ad::Variable::leaf(Tensor::zeros({1, 64})),
      ad::Variable::leaf(Tensor::randn({64, 1}, rng, 0.0, 0.3)),
      ad::Variable::leaf(Tensor::zeros({1, 1}))};
  const ad::Variable x =
      ad::Variable::constant(Tensor::rand({256, 2}, rng, -1.0, 1.0));
  const auto loss = [&] {
    ad::Variable h = ad::tanh(ad::add(ad::matmul(x, params[0]), params[1]));
    h = ad::tanh(ad::add(ad::matmul(h, params[2]), params[3]));
    return ad::mean_all(
        ad::square(ad::add(ad::matmul(h, params[4]), params[5])));
  };

  plan::ExecutionPlan fwd;
  Tensor fwd_loss;
  {
    plan::CaptureScope scope(fwd);
    fwd_loss = loss().value();
  }
  const plan::PassStats f = plan::optimize_plan(fwd, {fwd_loss});
  EXPECT_EQ(f.thunks_before, 11u);
  EXPECT_EQ(f.thunks_after, 9u);
  EXPECT_EQ(f.arena_bytes_before, 792592u);
  EXPECT_EQ(f.arena_bytes_after, 266256u);
  EXPECT_EQ(f.deduplicated, 0u);
  EXPECT_EQ(f.folded, 0u);

  plan::ExecutionPlan step;
  std::vector<Tensor> grads;
  {
    plan::CaptureScope scope(step);
    for (const ad::Variable& g : ad::grad(loss(), params)) {
      grads.push_back(g.value());
    }
  }
  const plan::PassStats s = plan::optimize_plan(step, grads);
  EXPECT_EQ(s.thunks_before, 36u);
  EXPECT_EQ(s.thunks_after, 22u);
  EXPECT_EQ(s.arena_bytes_before, 2444320u);
  EXPECT_EQ(s.arena_bytes_after, 599056u);
  EXPECT_EQ(s.deduplicated, 0u);
  EXPECT_EQ(s.folded, 3u);
}

// The one-shard TDSE training plan of a 16x16 tanh backbone with 8 RFF
// features and a hard initial condition, on a 12 x 12 interior.
TEST(PlanPassesPinned, TdseTrainingPlan) {
  PrecisionGuard precision_guard;
  auto problem = make_free_packet_problem();
  TrainConfig config = default_train_config(/*epochs=*/1, /*seed=*/7);
  config.resample_every = 0;
  config.sampling.n_interior_x = 12;
  config.sampling.n_interior_t = 12;
  config.sampling.n_initial = 24;
  config.sampling.n_boundary = 12;
  config.graph = GraphMode::kOn;
  ASSERT_EQ(config.threads, 1u);
  FieldModelConfig model_config = default_model_config(*problem, 7);
  model_config.hidden = {16, 16};
  model_config.fourier = nn::FourierConfig{8, 1.0};
  model_config.hard_ic =
      HardIc{problem->config().initial, problem->domain().t_lo};
  Trainer trainer(problem, make_field_model(model_config), config);
  trainer.step(0);

  const auto pass = trainer.plan_pass_stats();
  ASSERT_EQ(pass.size(), 1u);
  EXPECT_EQ(pass[0].thunks_before, 1491u);
  EXPECT_EQ(pass[0].thunks_after, 815u);
  EXPECT_EQ(pass[0].arena_bytes_before, 8439880u);
  EXPECT_EQ(pass[0].arena_bytes_after, 1988496u);
  EXPECT_EQ(pass[0].deduplicated, 195u);
  EXPECT_EQ(pass[0].folded, 54u);
}

// --- trainer: bit-identity with passes on -----------------------------------

TEST(PlanPassesTrainer, TdsePlanShrinksAndStaysBitIdenticalEveryIsa) {
  PrecisionGuard precision_guard;
  IsaGuard guard;
  auto problem = make_free_packet_problem();
  const TrainConfig base = passes_config(1);
  for (simd::Isa isa : simd::available_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    plan::reset_plan_stats();
    const auto eager = run_steps(problem, base, GraphMode::kOff, 60, 3);
    const auto replay = run_steps(problem, base, GraphMode::kOn, 60, 3);
    expect_bit_identical(eager, replay);
    // The optimizer must have run once (one shard) and actually shrunk the
    // TDSE training plan in both dimensions.
    const plan::PlanStats stats = plan::plan_stats();
    EXPECT_EQ(stats.plans_optimized, 1u);
    EXPECT_GT(stats.thunks_eliminated, 0u);
    EXPECT_GT(stats.arena_bytes_saved, 0u);
    EXPECT_EQ(stats.fallbacks, 0u);

    // CSE merged recomputed values in the trainer's plan...
    TrainConfig config = base;
    config.graph = GraphMode::kOn;
    auto model = tiny_model(*problem, 3);
    Trainer trainer(problem, model, config);
    trainer.step(0);
    const auto pass = trainer.plan_pass_stats();
    ASSERT_EQ(pass.size(), 1u);
    EXPECT_GT(pass[0].deduplicated, 0u);

    // ...and of every differentiation order's sin/cos of the RFF
    // projection (6 features here), exactly one of each survives in the
    // same residual step captured through the public API.
    plan::ExecutionPlan step_plan;
    std::vector<Tensor> outputs;
    {
      plan::CaptureScope scope(step_plan);
      const ad::Variable points =
          ad::Variable::leaf(trainer.collocation().interior, true);
      const ad::Variable loss =
          ad::square_sum(problem->residual(*model, points));
      outputs.push_back(loss.value());
      for (const ad::Variable& g : ad::grad(loss, model->parameters())) {
        outputs.push_back(g.value());
      }
    }
    ASSERT_GT(count_unary(step_plan, &kernels::sin_into, 6), 1u);
    // Every matmul backward multiplies by a transposed activation, which
    // has the interior row count; the fold reads them all in place, so
    // none of those transposes survives (weight-sized ones may).
    const std::int64_t rows = trainer.collocation().interior.rows();
    const auto activation_transposes = [&] {
      std::size_t n = 0;
      for (const plan::Thunk& t : step_plan.thunks()) {
        if (t.kind == plan::ThunkKind::kUnary &&
            t.k1 == &kernels::transpose_into && t.ins[0].rows() == rows) {
          ++n;
        }
      }
      return n;
    };
    ASSERT_GT(activation_transposes(), 0u);
    const plan::PassStats step_stats =
        plan::optimize_plan(step_plan, outputs);
    EXPECT_NO_THROW(plan::verify_plan(step_plan, "test"));
    EXPECT_EQ(count_unary(step_plan, &kernels::sin_into, 6), 1u);
    EXPECT_EQ(count_unary(step_plan, &kernels::cos_into, 6), 1u);
    EXPECT_GT(step_stats.folded, 0u);
    EXPECT_EQ(activation_transposes(), 0u);
  }
}

TEST(PlanPassesTrainer, ParallelShardsWithCurriculumBitIdentical) {
  PrecisionGuard precision_guard;
  set_global_threads(4);
  auto problem = make_free_packet_problem();
  TrainConfig base = passes_config(1);
  base.threads = 4;
  base.curriculum = CurriculumConfig{};
  base.curriculum->bins = 4;
  base.curriculum->warmup_epochs = 30;
  plan::reset_plan_stats();
  const auto eager = run_steps(problem, base, GraphMode::kOff, 40, 5);
  const auto replay = run_steps(problem, base, GraphMode::kOn, 40, 5);
  expect_bit_identical(eager, replay);
  // Every shard's plan was optimized (concurrently, inside the pool).
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_optimized, 4u);
  EXPECT_GT(stats.thunks_eliminated, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
  set_global_threads(default_num_threads());
}

TEST(PlanPassesTrainer, ResampleEveryEpochSurvivesPasses) {
  PrecisionGuard precision_guard;
  auto problem = make_free_packet_problem();
  TrainConfig base = passes_config(1);
  base.resample_every = 1;
  plan::reset_plan_stats();
  const auto eager = run_steps(problem, base, GraphMode::kOff, 30, 13);
  const auto replay = run_steps(problem, base, GraphMode::kOn, 30, 13);
  expect_bit_identical(eager, replay);
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.plans_captured, 1u);
  EXPECT_EQ(stats.plans_optimized, 1u);
  EXPECT_EQ(stats.replays, 29u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

// Invalidation (batch-shape change) discards the optimized plan and the
// re-capture is optimized again — the passes don't interfere with the
// fallback path.
TEST(PlanPassesTrainer, InvalidationRecaptureReoptimizes) {
  auto problem = make_free_packet_problem();
  TrainConfig config = passes_config(1);
  config.graph = GraphMode::kOn;
  auto model = tiny_model(*problem, 9);
  Trainer trainer(problem, model, config);

  plan::reset_plan_stats();
  trainer.step(0);
  trainer.step(1);
  EXPECT_EQ(plan::plan_stats().plans_optimized, 1u);

  const Tensor& interior = trainer.collocation().interior;
  trainer.replace_interior(
      kernels::slice_rows(interior, 0, interior.shape()[0] / 2));
  const EpochRecord record = trainer.step(2);
  EXPECT_TRUE(std::isfinite(record.total_loss));
  const plan::PlanStats stats = plan::plan_stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.plans_captured, 2u);
  EXPECT_EQ(stats.plans_optimized, 2u);
}

// --- serving plans ----------------------------------------------------------

// Forward-only plans go through the same pipeline: the optimized
// CompiledModel must evaluate bit-identically to the verbatim capture of
// the same forward pass, and its arena must be no larger.
TEST(PlanPassesServe, CompiledModelOptimizedBitIdenticalToVerbatim) {
  PrecisionGuard precision_guard;
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 31);
  constexpr std::int64_t kRows = 16;

  // The verbatim reference: captured exactly as a CompiledModel lane
  // captures its forward pass, with no pass run over it.
  plan::ExecutionPlan verbatim;
  Tensor input = Tensor::zeros({kRows, 2});
  Tensor output;
  {
    ad::NoGradGuard no_grad;
    plan::CaptureScope scope(verbatim, plan::CaptureKind::kForwardOnly);
    output = model->forward(ad::Variable::constant(input)).value();
  }
  const auto optimized =
      serve::CompiledModel::compile(model, kRows, {}, /*lanes=*/1);

  EXPECT_LE(optimized->plan_size(), verbatim.size());
  EXPECT_LE(optimized->arena_bytes(), verbatim.arena_bytes());
  EXPECT_EQ(verbatim.pass_stats().thunks_before, 0u);  // passes never ran
  EXPECT_EQ(optimized->pass_stats().thunks_before, verbatim.size());

  Rng rng(7);
  const Tensor xy = Tensor::rand({kRows, 2}, rng, -1.0, 1.0);
  kernels::copy_into(input, xy);
  verbatim.replay();
  const Tensor b = optimized->evaluate(xy);
  for (std::int64_t i = 0; i < output.numel(); ++i) {
    EXPECT_EQ(output[i], b[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace qpinn::core
