// A workload's set-up: the objects a user builds before the first timed
// operation. Shared by the end-to-end run (workloads.cpp) and the layer
// probes (probes.cpp), so both measure the same configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/benchmarks.hpp"
#include "core/trainer.hpp"
#include "dist/communicator.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/compiled_model.hpp"
#include "serve/model_registry.hpp"
#include "serve/query_queue.hpp"

namespace perfbench {

/// The workload's TrainConfig: the default recipe with the budget, shard
/// count, graph mode and L-BFGS round size pinned.
qpinn::core::TrainConfig train_config(const Workload& w, std::uint64_t seed);

/// Problem, model(s) and trainer(s) of a training workload, including the
/// first (capturing) Trainer::step. With world > 1 each rank owns a Trainer
/// on a loopback communicator and ranks 1.. step on their own threads.
class TrainSession {
 public:
  TrainSession(const Workload& w, std::uint64_t seed, Tracer* tracer);
  ~TrainSession();
  TrainSession(const TrainSession&) = delete;
  TrainSession& operator=(const TrainSession&) = delete;

  /// One Adam epoch on every rank; returns rank 0's record.
  qpinn::core::EpochRecord step(std::int64_t epoch);
  /// Rank 0's trainer.
  qpinn::core::Trainer& lead() { return *trainers_.front(); }
  const std::shared_ptr<qpinn::core::SchrodingerProblem>& problem() const {
    return problem_;
  }
  /// True when every rank holds bit-identical parameters.
  bool ranks_identical();

 private:
  Tracer* tracer_;
  std::shared_ptr<qpinn::core::SchrodingerProblem> problem_;
  std::vector<std::shared_ptr<qpinn::dist::Communicator>> comms_;
  std::vector<std::unique_ptr<qpinn::core::Trainer>> trainers_;
  // Declared last: joined first, before the trainers its tasks use.
  std::unique_ptr<qpinn::ThreadPool> rank_threads_;
};

/// Problem, surrogate, registry and a 1-worker QueryQueue, warmed up by one
/// closed-loop burst from kServeClients clients.
struct ServeSession {
  explicit ServeSession(Tracer* tracer);

  std::shared_ptr<qpinn::core::SchrodingerProblem> problem;
  std::shared_ptr<qpinn::core::FieldModel> model;  ///< the served weights
  std::shared_ptr<const qpinn::serve::CompiledModel> compiled;
  std::shared_ptr<qpinn::serve::ModelRegistry> registry;
  std::unique_ptr<qpinn::serve::QueryQueue> queue;
};

/// The queue configuration every serving run pins.
qpinn::serve::QueryQueueConfig serve_queue_config();

}  // namespace perfbench
