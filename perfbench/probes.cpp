// Per-layer metrics of the traced run. Each one times a public call into
// one layer at the workload's settings (pool size, precision, shard rows),
// inside a span named after the metric; the metric is the median span. The
// counts come from public getters. README.md maps every metric to the
// end-to-end metric it should move.
#include <algorithm>
#include <cmath>
#include <thread>

#include "autodiff/grad.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/plan.hpp"
#include "autodiff/plan_passes.hpp"
#include "core/domain.hpp"
#include "optim/adam.hpp"
#include "parallel/parallel_for.hpp"
#include "sessions.hpp"
#include "tensor/kernels.hpp"
#include "tensor/storage_pool.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ad = qpinn::autodiff;
namespace plan = qpinn::autodiff::plan;
namespace core = qpinn::core;
namespace serve = qpinn::serve;
using qpinn::Tensor;

namespace {

constexpr int kSteps = 5;         // steady Trainer::step calls
constexpr int kReplays = 10;      // step-plan replays
constexpr int kEagerGrads = 5;    // eager loss + grad evaluations
constexpr int kAdamSteps = 20;
constexpr int kResamples = 20;
constexpr int kBatchCalls = 100;  // calls per span for sub-10us operations
constexpr int kAllreduces = 40;
constexpr int kProbeQueries = 3000;  // per closed-loop client
constexpr std::size_t kForkJoinThreads = 2;

/// The trainer's loss for rows [0, rows) of the interior set plus the
/// auxiliary terms (shard 0's share), built from the public Problem API.
ad::Variable shard_loss(core::SchrodingerProblem& problem,
                        core::FieldModel& model,
                        const core::CollocationSet& points,
                        std::int64_t rows) {
  const std::int64_t total = points.interior.rows();
  const ad::Variable X = ad::Variable::leaf(
      qpinn::kernels::slice_rows(points.interior, 0, rows), true);
  const ad::Variable residual = problem.residual(model, X);
  ad::Variable loss = ad::scale(
      ad::square_sum(residual),
      1.0 / static_cast<double>(total * problem.residual_dim()));
  for (core::LossTerm& term : problem.auxiliary_losses(model, points)) {
    if (term.weight == 0.0) continue;
    loss = ad::add(loss, ad::scale(term.value, term.weight));
  }
  return loss;
}

/// A captured loss + gradient plan and the buffers the host reads.
struct StepPlan {
  plan::ExecutionPlan plan;
  std::vector<Tensor> outputs;  // loss, then one gradient per parameter
};

StepPlan capture_step(Tracer& tr, core::SchrodingerProblem& problem,
                      core::FieldModel& model,
                      const core::CollocationSet& points, std::int64_t rows) {
  StepPlan sp;
  const auto params = model.parameters();
  {
    ScopedSpan span(&tr, "autodiff.capture");
    plan::CaptureScope scope(sp.plan);
    const ad::Variable loss = shard_loss(problem, model, points, rows);
    sp.outputs.push_back(loss.value());
    for (const ad::Variable& g : ad::grad(loss, params)) {
      sp.outputs.push_back(g.value());
    }
  }
  ScopedSpan span(&tr, "autodiff.optimize");
  plan::optimize_plan(sp.plan, sp.outputs);
  return sp;
}

/// Operand bytes one replay touches, computed from the thunks (every
/// operand counted once per thunk at 8 bytes per element).
double bytes_per_replay(const plan::ExecutionPlan& p) {
  double bytes = 0.0;
  for (const plan::Thunk& t : p.thunks()) {
    double elems = static_cast<double>(t.out.numel());
    for (const Tensor& in : t.ins) elems += static_cast<double>(in.numel());
    bytes += 8.0 * elems;
  }
  return bytes;
}

/// Serve-layer probe: compile, single-batch replay and a fixed closed-loop
/// burst through a fresh queue.
void probe_serve(Tracer& tr, core::SchrodingerProblem& problem,
                 std::vector<Metric>& out) {
  std::shared_ptr<const serve::CompiledModel> compiled;
  {
    ScopedSpan span(&tr, "serve.compile");
    compiled = serve::CompiledModel::compile(
        core::make_model_for(problem, kModelSeed, true), kServeBatch, {},
        /*lanes=*/1);
  }
  std::vector<double> xy(2 * kServeBatch);
  std::vector<double> uv(2 * kServeBatch);
  for (std::int64_t i = 0; i < kServeBatch; ++i) {
    xy[static_cast<std::size_t>(2 * i)] = -1.0 + 0.5 * static_cast<double>(i);
    xy[static_cast<std::size_t>(2 * i + 1)] = 0.25;
  }
  for (int rep = 0; rep < 20; ++rep) {
    ScopedSpan span(&tr, "serve.batch_replay");
    for (int i = 0; i < kBatchCalls; ++i) {
      compiled->evaluate_into(xy.data(), kServeBatch, uv.data());
    }
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish(compiled);
  std::vector<double> latency_ms;
  serve::QueueStats stats;
  {
    serve::QueryQueue queue(registry, serve_queue_config());
    std::vector<std::vector<double>> per_client(kServeClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        auto& lat = per_client[static_cast<std::size_t>(c)];
        for (int q = 0; q < kProbeQueries; ++q) {
          const Clock::time_point t0 = Clock::now();
          (void)queue.query(-3.0 + 0.002 * q, 0.1 + 0.2 * c);
          lat.push_back(seconds_since(t0) * 1e3);
        }
      });
    }
    for (auto& t : clients) t.join();
    stats = queue.stats();
    for (const auto& lat : per_client) {
      latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    }
  }
  const double replay_us = tr.median_ms("serve.batch_replay") * 1e3 / kBatchCalls;
  const double batches = static_cast<double>(stats.batches);
  out.push_back({"serve.compile_ms", tr.median_ms("serve.compile"), "ms"});
  out.push_back({"serve.batch_replay_us", replay_us, "us"});
  out.push_back({"serve.queue_overhead_us",
                 percentile(latency_ms, 0.5) * 1e3 - replay_us, "us"});
  out.push_back({"serve.flushes", batches, "count"});
  out.push_back({"serve.batch_fill",
                 static_cast<double>(stats.queries) /
                     (batches * static_cast<double>(kServeBatch)),
                 "ratio"});
  out.push_back({"serve.partial_flush_frac",
                 static_cast<double>(stats.partial_batches) / batches,
                 "ratio"});
}

/// Dist-layer probe: a 2-rank loopback all-reduce of the trainer's buffer
/// (parameters + loss, aux and stop slots). Returns the median in ms.
double probe_dist(Tracer& tr, std::int64_t n_doubles, std::vector<Metric>& out) {
  qpinn::dist::TransportOptions options;
  options.message_timeout_ms = 10000;
  options.heartbeat_timeout_ms = 30000;
  auto comms = qpinn::dist::Communicator::loopback(2, options);
  std::thread peer([&comms, n_doubles] {
    std::vector<double> buf(static_cast<std::size_t>(n_doubles), 1.0);
    for (int c = 0; c < kAllreduces; ++c) comms[1]->allreduce(buf, c);
  });
  std::vector<double> buf(static_cast<std::size_t>(n_doubles), 0.5);
  for (int c = 0; c < kAllreduces; ++c) {
    ScopedSpan span(&tr, "dist.allreduce");
    comms[0]->allreduce(buf, c);
  }
  peer.join();
  const qpinn::dist::CommStats& stats = comms[0]->stats();
  comms[0]->shutdown();
  const double allreduce_ms = tr.median_ms("dist.allreduce");
  out.push_back({"dist.allreduce_us", allreduce_ms * 1e3, "us"});
  out.push_back({"dist.allreduces", static_cast<double>(stats.allreduces), "count"});
  out.push_back({"dist.retransmits", static_cast<double>(stats.retransmits), "count"});
  return allreduce_ms;
}

}  // namespace

std::vector<Metric> run_probes(const Workload& w, std::uint64_t seed,
                               Tracer& tr, const RunResult& untraced,
                               const RunResult& traced) {
  pin_settings(w);
  ScopedSpan root(&tr, "probes");
  std::vector<Metric> out;

  // serve_closed has no trainer: its training-side probes use
  // tdse_serial's recipe at serve_closed's own pool size.
  Workload tw = w.serve ? *find_workload("tdse_serial") : w;
  tw.pool_threads = w.pool_threads;
  tw.precision = w.precision;

  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(&tr, "core.problem_build");
    auto problem = core::make_free_packet_problem();
    (void)problem->reference();
  }

  TrainSession session(tw, seed, &tr);
  core::Trainer& trainer = session.lead();
  const auto pool0 = qpinn::StoragePool::instance().stats();
  for (int e = 1; e <= kSteps; ++e) {
    ScopedSpan span(&tr, "probe.step");
    session.step(e);
  }
  const auto pool1 = qpinn::StoragePool::instance().stats();
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(&tr, "Trainer::evaluate_l2");
    (void)trainer.evaluate_l2();
  }
  const core::TrainConfig tc = train_config(tw, seed);
  const std::int64_t n_interior =
      tc.sampling.n_interior_x * tc.sampling.n_interior_t;
  qpinn::Rng rng(seed);
  for (int rep = 0; rep < kResamples; ++rep) {
    ScopedSpan span(&tr, "core.resample");
    (void)core::latin_hypercube_points(session.problem()->domain(), n_interior,
                                       rng);
  }
  qpinn::optim::LbfgsResult lbfgs;
  {
    ScopedSpan span(&tr, "Trainer::run_second_stage");
    lbfgs = trainer.run_second_stage(tw.adam_epochs);
  }

  // The step's loss and gradients over one shard's rows (rank 0's share on
  // tdse_dist2), captured, optimized and replayed by the benchmark itself.
  const std::int64_t shard_rows =
      n_interior / (static_cast<std::int64_t>(tw.shards) * tw.world);
  core::SchrodingerProblem& problem = *session.problem();
  core::FieldModel& model = trainer.model();
  const core::CollocationSet& points = trainer.collocation();
  StepPlan step = capture_step(tr, problem, model, points, shard_rows);
  const bool mixed = w.precision == ad::Precision::kMixed;
  if (mixed) {
    ScopedSpan span(&tr, "autodiff.demote");
    ad::demote_plan(step.plan, step.outputs);
  } else {
    // Demotion cost on an identical capture, so every workload reports it.
    StepPlan spare = capture_step(tr, problem, model, points, shard_rows);
    ScopedSpan span(&tr, "autodiff.demote");
    ad::demote_plan(spare.plan, spare.outputs);
  }
  step.plan.replay();  // warm
  for (int rep = 0; rep < kReplays; ++rep) {
    ScopedSpan span(&tr, "autodiff.replay");
    step.plan.replay();
  }
  for (int rep = 0; rep < kEagerGrads; ++rep) {
    ScopedSpan span(&tr, "autodiff.eager_grad");
    const ad::Variable loss = shard_loss(problem, model, points, shard_rows);
    (void)ad::grad(loss, model.parameters());
  }
  {
    qpinn::optim::Adam adam(model.parameters(), tc.adam);
    const std::vector<Tensor> grads(step.outputs.begin() + 1,
                                    step.outputs.end());
    for (int rep = 0; rep < kAdamSteps; ++rep) {
      ScopedSpan span(&tr, "optim.adam_step");
      adam.step(grads);
    }
  }
  {
    // Every workload's pool is 1 thread, where parallel_for runs inline, so
    // the fork-join is timed on a 2-thread pool, the size a user sharding
    // over two cores would pick; the workload's pool is restored after.
    qpinn::set_global_threads(kForkJoinThreads);
    for (int rep = 0; rep < 20; ++rep) {
      ScopedSpan span(&tr, "parallel.fork_join");
      for (int i = 0; i < kBatchCalls; ++i) {
        qpinn::parallel_for(kForkJoinThreads, [](std::size_t, std::size_t) {},
                            1);
      }
    }
    pin_settings(w);
  }

  const double resample_ms = tr.median_ms("core.resample");
  const double replay_ms = tr.median_ms("autodiff.replay");
  const double eager_ms = tr.median_ms("autodiff.eager_grad");
  const double adam_ms = tr.median_ms("optim.adam_step");
  const double second_stage_ms = tr.median_ms("Trainer::run_second_stage");
  const double steps = static_cast<double>(kSteps);
  const double allocs =
      static_cast<double>(pool1.heap_allocations - pool0.heap_allocations);
  const double reuses =
      static_cast<double>(pool1.pool_reuses - pool0.pool_reuses);

  out.push_back({"core.problem_build_ms", tr.median_ms("core.problem_build"), "ms"});
  out.push_back({"core.capture_step_ms", tr.median_ms("Trainer::step(first)"), "ms"});
  out.push_back({"core.evaluate_l2_ms", tr.median_ms("Trainer::evaluate_l2"), "ms"});
  out.push_back({"core.second_stage_ms", second_stage_ms, "ms"});
  out.push_back({"core.resample_ms", resample_ms, "ms"});
  out.push_back({"optim.lbfgs_iters", static_cast<double>(lbfgs.iterations), "count"});
  out.push_back({"optim.lbfgs_iter_ms",
                 second_stage_ms / static_cast<double>(std::max<std::int64_t>(
                                       1, lbfgs.iterations)),
                 "ms"});
  out.push_back({"optim.adam_step_ms", adam_ms, "ms"});
  out.push_back({"autodiff.capture_ms", tr.median_ms("autodiff.capture"), "ms"});
  out.push_back({"autodiff.optimize_ms", tr.median_ms("autodiff.optimize"), "ms"});
  out.push_back({"autodiff.demote_ms", tr.median_ms("autodiff.demote"), "ms"});
  out.push_back({"autodiff.replay_ms", replay_ms, "ms"});
  out.push_back({"autodiff.eager_grad_ms", eager_ms, "ms"});
  out.push_back({"autodiff.plan_thunks", static_cast<double>(step.plan.size()), "count"});
  out.push_back({"autodiff.plan_arena_bytes",
                 static_cast<double>(step.plan.arena_bytes()), "bytes"});
  out.push_back({"autodiff.plan_fallbacks",
                 static_cast<double>(plan::plan_stats().fallbacks), "count"});
  out.push_back({"tensor.bytes_per_replay", bytes_per_replay(step.plan), "bytes"});
  out.push_back({"tensor.pool_allocs_per_epoch", allocs / steps, "count"});
  out.push_back({"tensor.pool_reuse_ratio",
                 reuses + allocs > 0.0 ? reuses / (reuses + allocs) : 0.0,
                 "ratio"});
  out.push_back({"parallel.fork_join_us",
                 tr.median_ms("parallel.fork_join") * 1e3 / kBatchCalls, "us"});

  std::int64_t n_params = 0;
  for (const ad::Variable& p : model.parameters()) n_params += p.numel();
  const double allreduce_ms = probe_dist(tr, n_params + 3, out);
  probe_serve(tr, problem, out);

  // Reconciliation: the epoch the workload measured untraced, minus the
  // layer calls one epoch makes (resample, the shard replays the pool runs
  // in turn, or the eager gradient and all-reduce in dist mode, Adam).
  const std::size_t replays_in_turn =
      (tw.shards + tw.pool_threads - 1) / tw.pool_threads;
  const double layer_sum =
      resample_ms + adam_ms +
      (tw.world > 1 ? eager_ms + allreduce_ms
                    : replay_ms * static_cast<double>(replays_in_turn));
  const double epoch_ms =
      w.serve ? tr.median_ms("probe.step") : untraced.op_ms_p50;
  out.push_back({"core.step_unattributed_ms", epoch_ms - layer_sum, "ms"});
  out.push_back({"trace.overhead_pct",
                 100.0 * (traced.op_ms_p50 - untraced.op_ms_p50) /
                     untraced.op_ms_p50,
                 "%"});
  out.push_back({"trace.spans", static_cast<double>(tr.size()), "count"});
  {
    // Cost of one span, recorded into a scratch tracer so the counts above
    // stay the run's own.
    Tracer scratch;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 10000; ++i) ScopedSpan span(&scratch, "trace.cost");
    out.push_back({"trace.span_cost_us", seconds_since(t0) * 1e6 / 10000.0, "us"});
  }
  return out;
}

}  // namespace perfbench
