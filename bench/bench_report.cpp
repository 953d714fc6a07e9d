// bench_report — the two within-run timing-ratio gates.
//
// Each ratio times both sides back to back in one process, on one thread,
// so it compares code with code on the same host, never against a stored
// baseline:
//
//   mixed_speedup_x   fp64 vs demoted (mixed-precision) replay of the same
//                     captured MLP training step. Below 1.3 the run exits 1.
//   speedup_*_vs_scalar
//                     the active SIMD table vs the forced-scalar one on add,
//                     mul, matmul and the eager training step. Add and mul
//                     below 0.95 print a parity warning.
//
// The exact plan sizes (thunks, arena bytes, CSE and fold counts) and the
// zero-allocation steady states are ctest cases (plan_passes_test,
// plan_test, pool_test, serve_test); end-to-end timing is perfbench's.
//
// Usage: bench_report   (no options; exit 0 when every gate holds)

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <vector>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/plan_passes.hpp"
#include "autodiff/precision.hpp"
#include "optim/adam.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using qpinn::Rng;
using qpinn::Stopwatch;
using qpinn::Tensor;
namespace ad = qpinn::autodiff;
namespace k = qpinn::kernels;
namespace plan = qpinn::autodiff::plan;
namespace simd = qpinn::simd;

constexpr int kPasses = 3;
constexpr int kRepsMatmul = 10;  // 256x256 matmuls, training steps
constexpr int kRepsStream = 5;   // DRAM-bound elementwise sweeps
constexpr double kMixedGate = 1.3;
constexpr double kParityGate = 0.95;

/// Best-of-passes ns per call after one warm-up call. Interference spikes
/// (shared runners, frequency ramps) only ever make a pass slower, so the
/// minimum is the robust estimate.
template <typename F>
double best_ns(int reps, F body) {
  body();
  double ns = std::numeric_limits<double>::infinity();
  for (int p = 0; p < kPasses; ++p) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) body();
    ns = std::min(ns, sw.seconds() * 1e9 / reps);
  }
  return ns;
}

/// Six-parameter tanh MLP (2 -> 64 -> 64 -> 1) on a 256-point batch — the
/// same network scale the PINN examples train.
struct BenchModel {
  ad::Variable w1, b1, w2, b2, w3, b3;
  ad::Variable x;
  std::vector<ad::Variable> params;

  explicit BenchModel(Rng& rng)
      : w1(ad::Variable::leaf(Tensor::randn({2, 64}, rng, 0.0, 0.3))),
        b1(ad::Variable::leaf(Tensor::zeros({1, 64}))),
        w2(ad::Variable::leaf(Tensor::randn({64, 64}, rng, 0.0, 0.3))),
        b2(ad::Variable::leaf(Tensor::zeros({1, 64}))),
        w3(ad::Variable::leaf(Tensor::randn({64, 1}, rng, 0.0, 0.3))),
        b3(ad::Variable::leaf(Tensor::zeros({1, 1}))),
        x(ad::Variable::constant(Tensor::rand({256, 2}, rng, -1.0, 1.0))),
        params{w1, b1, w2, b2, w3, b3} {}

  ad::Variable loss() const {
    ad::Variable h = ad::tanh(ad::add(ad::matmul(x, w1), b1));
    h = ad::tanh(ad::add(ad::matmul(h, w2), b2));
    return ad::mean_all(ad::square(ad::add(ad::matmul(h, w3), b3)));
  }

  /// Captures loss + gradients into `p` and runs the plan passes; the
  /// returned gradient tensors are the plan's declared outputs.
  std::vector<Tensor> capture_step(plan::ExecutionPlan& p) const {
    std::vector<Tensor> grads;
    {
      plan::CaptureScope scope(p);
      for (const ad::Variable& g : ad::grad(loss(), params)) {
        grads.push_back(g.value());
      }
    }
    plan::optimize_plan(p, grads);
    return grads;
  }
};

}  // namespace

int main(int argc, char** argv) {
  qpinn::CliParser cli(
      "bench_report",
      "Within-run timing-ratio gates on one thread: fp64 vs mixed-precision "
      "replay of a captured training step (exit 1 below 1.3x), and SIMD vs "
      "forced-scalar kernels (warning below 0.95x on add/mul).");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  // One thread, as perfbench's gated workloads run: a ratio of two
  // single-thread timings does not move with the pool's scheduling.
  qpinn::set_global_threads(1);
  std::cout.precision(6);

  Rng rng(7);
  BenchModel model(rng);
  qpinn::optim::Adam adam(model.params, {});

  // ---- mixed gate --------------------------------------------------------
  // Two identically captured step plans; the second runs through
  // demote_plan, so its interior sweeps execute on the fp32 tables while
  // Adam stays eager fp64 on the master weights. Timed back to back.
  plan::ExecutionPlan fp64_plan;
  const std::vector<Tensor> fp64_grads = model.capture_step(fp64_plan);
  plan::ExecutionPlan mixed_plan;
  const std::vector<Tensor> mixed_grads = model.capture_step(mixed_plan);
  ad::demote_plan(mixed_plan, mixed_grads);
  const double fp64_ns = best_ns(kRepsMatmul, [&] {
    fp64_plan.replay();
    adam.step(fp64_grads);
  });
  const double mixed_ns = best_ns(kRepsMatmul, [&] {
    mixed_plan.replay();
    adam.step(mixed_grads);
  });
  const double mixed_speedup = fp64_ns / mixed_ns;
  std::cout << "train_step_replay_ns " << fp64_ns << "\n"
            << "train_step_mixed_ns " << mixed_ns << "\n"
            << "mixed_speedup_x " << mixed_speedup << "\n";

  // ---- SIMD gate ---------------------------------------------------------
  // Each op is timed under the active table and then under the scalar one,
  // back to back, on the same buffers. The elementwise pair runs in the
  // DRAM-bound regime (above the non-temporal store threshold): below LLC
  // size the 3-stream sweep is cache-bandwidth-bound and any vectorization
  // parity-matches the auto-vectorized scalar loop.
  const simd::Isa active_isa = simd::active_isa();
  std::cout << "simd_isa " << simd::isa_name(active_isa) << "\n";
  double speedup_add = 1.0;
  double speedup_mul = 1.0;
  if (active_isa != simd::Isa::kScalar &&
      simd::force_isa(simd::Isa::kScalar)) {
    simd::force_isa(active_isa);
    const auto paired = [&](int reps, auto body) {
      simd::force_isa(active_isa);
      const double vec = best_ns(reps, body);
      simd::force_isa(simd::Isa::kScalar);
      const double sca = best_ns(reps, body);
      simd::force_isa(active_isa);
      return sca / vec;
    };
    const Tensor sa = Tensor::rand({256, 256}, rng, -1.0, 1.0);
    const Tensor sb = Tensor::rand({256, 256}, rng, -1.0, 1.0);
    const std::int64_t big_n =
        static_cast<std::int64_t>(simd::detail::kStreamMinElems) * 2;
    const Tensor ba = Tensor::rand({big_n}, rng, -1.0, 1.0);
    const Tensor bb = Tensor::rand({big_n}, rng, -1.0, 1.0);
    const auto train_step = [&] {
      std::vector<Tensor> g;
      for (const ad::Variable& gv : ad::grad(model.loss(), model.params)) {
        g.push_back(gv.value());
      }
      adam.step(g);
    };
    speedup_add = paired(kRepsStream, [&] { k::add(ba, bb); });
    speedup_mul = paired(kRepsStream, [&] { k::mul(ba, bb); });
    const double speedup_matmul =
        paired(kRepsMatmul, [&] { k::matmul(sa, sb); });
    const double speedup_train = paired(kRepsMatmul, train_step);
    std::cout << "speedup_add_vs_scalar " << speedup_add << "\n"
              << "speedup_mul_vs_scalar " << speedup_mul << "\n"
              << "speedup_matmul_vs_scalar " << speedup_matmul << "\n"
              << "speedup_train_step_vs_scalar " << speedup_train << "\n";
  }

  // The elementwise add/mul speedups are gated at >= 0.95: the "scalar"
  // table's plain loops auto-vectorize under -O3, so on a cache-resident
  // 3-stream sweep explicit SIMD can only parity-match them. The gated
  // measurement therefore runs DRAM-bound, where the vector path's
  // non-temporal stores cut memory traffic and win outright (see
  // DESIGN.md); a value below 0.95 means the streaming path regressed.
  if (speedup_add < kParityGate || speedup_mul < kParityGate) {
    std::cout << "WARNING: elementwise SIMD speedup below the 0.95 parity "
                 "gate (add "
              << speedup_add << ", mul " << speedup_mul << ")\n";
  }
  if (mixed_speedup < kMixedGate) {
    std::cout << "FAIL: mixed_speedup_x " << mixed_speedup
              << " is below the 1.3x gate (train_step_replay vs "
                 "train_step_mixed)\n";
    return 1;
  }
  return 0;
}
