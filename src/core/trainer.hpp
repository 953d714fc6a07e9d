// The PINN training loop.
//
// Every step runs one pipeline: partition -> shard stage -> reduction. The
// interior residual MSE is split into contiguous row shards (one when
// serial, `threads` in process, or this rank's shard of `world` in dist
// mode); each shard builds its own forward/backward graph against the
// shared parameter leaves — eagerly, or by capturing that eager run into
// an execution plan and replaying it — and the per-shard gradients are
// reduced in shard order, then in rank order across dist ranks
// (deterministic). In fp64, every partition and every mode give the same
// bits as the matching threads = N eager run. This mirrors the
// batch-parallel GPU training of the original system on a shared-memory
// thread pool.
//
// The loop is fault-tolerant: optional crash-consistent checkpoints with
// resume (TrainConfig::checkpoint / resume_from), automatic rollback + LR
// backoff on divergence (TrainConfig::recovery), and cooperative shutdown
// (Trainer::request_stop / TrainConfig::stop_flag) that finishes the
// current epoch and writes a final checkpoint.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autodiff/plan.hpp"
#include "autodiff/precision.hpp"
#include "core/checkpoint.hpp"
#include "core/curriculum.hpp"
#include "core/metrics.hpp"
#include "core/problem.hpp"
#include "dist/communicator.hpp"
#include "optim/adam.hpp"
#include "optim/lbfgs.hpp"
#include "optim/scheduler.hpp"
#include "tensor/simd.hpp"

namespace qpinn::core {

/// Graph capture & replay policy for the training step: kOn (default)
/// captures and replays, kOff runs the eager tape every step.
enum class GraphMode { kOn, kOff };

/// Divergence-recovery policy. When a step's loss or gradients go
/// non-finite — or the loss exceeds `explosion_factor` times the minimum of
/// the trailing window — the trainer rolls model, optimizer, and RNG back
/// to the last good in-memory snapshot, decays the LR by `lr_backoff`, and
/// retries from there; after `max_recoveries` rollbacks it gives up
/// gracefully (TrainResult.diverged) instead of throwing.
struct RecoveryConfig {
  std::int64_t max_recoveries = 3;
  double lr_backoff = 0.5;  ///< multiplied into the LR on each recovery
  /// Diverged when loss > factor * min(trailing window); 0 disables the
  /// explosion check (non-finite values still trigger recovery).
  double explosion_factor = 0.0;
  std::int64_t explosion_window = 20;
  /// In-memory snapshot cadence in epochs (rollback granularity).
  std::int64_t snapshot_every = 25;

  void validate() const;
};

/// One rollback performed by the divergence-recovery policy.
struct RecoveryEvent {
  std::int64_t detected_epoch = 0;  ///< epoch whose step diverged
  std::int64_t rollback_epoch = 0;  ///< last good epoch restored
  double lr_scale = 1.0;            ///< LR multiplier in effect afterwards
  std::string reason;
};

/// Optional L-BFGS refinement after the Adam epochs — the classical PINN
/// two-stage recipe. The second stage runs eagerly in fp64 on the full
/// interior set (no plan capture, no mixed-precision demotion) and is
/// skipped when the Adam stage diverged or was interrupted.
struct SecondStageConfig {
  bool enabled = false;
  optim::LbfgsConfig lbfgs{};
};

struct TrainConfig {
  std::int64_t epochs = 2000;
  optim::AdamConfig adam{};       ///< adam.lr is the base learning rate
  double lr_decay = 1.0;          ///< multiplicative factor (1 = constant)
  std::int64_t lr_decay_every = 2000;
  double grad_clip = 0.0;         ///< global-norm clip; 0 disables
  double weight_pde = 1.0;        ///< weight of the interior residual MSE
  std::optional<CurriculumConfig> curriculum;
  SamplingConfig sampling{};
  /// Draw a fresh interior collocation set every `resample_every` epochs
  /// (0 = fixed set). Only meaningful for random/LHS samplers; the key
  /// defense against residual overfitting at fixed points.
  std::int64_t resample_every = 0;
  /// Evaluate relative L2 against the reference every `eval_every` epochs
  /// (0: only at the end). Evaluation uses a metric_nx x metric_nt grid.
  std::int64_t eval_every = 0;
  std::int64_t metric_nx = 64;
  std::int64_t metric_nt = 32;
  /// Emit a log line every `log_every` epochs (0: silent).
  std::int64_t log_every = 0;
  /// Interior-shard count for data-parallel training (1 = serial).
  std::size_t threads = 1;
  /// Throw NumericsError when the loss goes non-finite. (With `recovery`
  /// set, non-finite steps are rolled back instead of thrown regardless.)
  bool check_finite = true;
  /// Roll back + LR-backoff on divergence instead of throwing.
  std::optional<RecoveryConfig> recovery;
  /// Periodic crash-consistent checkpoints (last/best rotation).
  std::optional<CheckpointConfig> checkpoint;
  /// Path of a v2 training checkpoint to resume from (empty: fresh start).
  std::string resume_from;
  /// Optional external stop flag (e.g. set from a SIGINT handler); polled
  /// after every epoch, same semantics as Trainer::request_stop().
  const std::atomic<bool>* stop_flag = nullptr;
  /// Capture the training step into an execution plan on the first epoch
  /// and replay it afterwards (autodiff/plan.hpp), in process and in dist
  /// mode alike. Replay is bit-identical to eager execution, so this is
  /// purely a performance choice.
  GraphMode graph = GraphMode::kOn;
  /// Multi-process data-parallel training (dist/communicator.hpp): each
  /// rank computes one contiguous interior shard — the same partition
  /// arithmetic as `threads` sharding — and gradients are all-reduced in
  /// rank order, so an N-rank run is bit-identical to a single-process
  /// run with threads = N. With `graph` on, each rank captures and replays
  /// its own shard; a degrade that reshapes the shards re-captures.
  /// Mutually exclusive with threads > 1. Only rank 0 writes
  /// checkpoints; `resume_from` plus Communicator::rejoined() drives the
  /// elastic-rejoin path. Null: single-process training.
  std::shared_ptr<dist::Communicator> dist;
  /// L-BFGS refinement stage after the Adam epochs (see SecondStageConfig).
  SecondStageConfig second_stage{};

  void validate() const;
};

struct EpochRecord {
  std::int64_t epoch = 0;
  double total_loss = 0.0;
  double pde_loss = 0.0;
  std::vector<std::pair<std::string, double>> aux_losses;
  double l2 = std::numeric_limits<double>::quiet_NaN();  ///< NaN: not evaluated
  double lr = 0.0;
  double grad_norm = 0.0;
};

struct TrainResult {
  std::vector<EpochRecord> history;
  double final_loss = 0.0;
  double final_l2 = 0.0;
  double seconds = 0.0;
  std::int64_t epochs_run = 0;
  /// First epoch of this fit() call (nonzero when resumed).
  std::int64_t start_epoch = 0;
  /// Every rollback performed; recoveries == recovery_events.size().
  std::vector<RecoveryEvent> recovery_events;
  std::int64_t recoveries = 0;
  /// Gave up after max_recoveries (model restored to the last good state).
  bool diverged = false;
  /// Stopped cooperatively before the configured epoch count.
  bool interrupted = false;
  /// Rank losses survived via the distributed recovery state machine
  /// (checkpoint + rejoin/degrade + epoch retry).
  std::int64_t rank_failures = 0;

  /// First epoch record at-or-after `epoch` (for convergence plots).
  const EpochRecord& at_epoch(std::int64_t epoch) const;
};

class Trainer {
 public:
  Trainer(std::shared_ptr<Problem> problem, std::shared_ptr<FieldModel> model,
          TrainConfig config);

  /// Runs the configured number of epochs and returns the history.
  TrainResult fit();

  /// One optimization step on the stored collocation set; returns the
  /// epoch record (exposed for benchmarking single-step cost).
  EpochRecord step(std::int64_t epoch);

  /// Relative L2 of the current model against the problem reference.
  double evaluate_l2();

  /// One L-BFGS refinement pass over the current full-batch objective
  /// (the second stage of the classical Adam -> L-BFGS PINN recipe),
  /// using config.second_stage.lbfgs. Always eager fp64: no plan capture
  /// and no mixed-precision demotion, so the curvature estimates see the
  /// fp64 master weights directly. fit() invokes this automatically when
  /// second_stage.enabled; it is public so benchmarks can interleave
  /// refinement rounds with metric evaluation. `epoch` selects the
  /// curriculum weighting epoch (fit passes the last completed epoch;
  /// pass the Adam-stage epoch count when driving it manually — it is
  /// ignored without a curriculum).
  optim::LbfgsResult run_second_stage(std::int64_t epoch);

  /// Cooperative stop: the current epoch finishes, a final checkpoint is
  /// written (when checkpointing is configured), and fit() returns a
  /// partial TrainResult with interrupted = true. Async-signal-safe.
  void request_stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  bool stop_requested() const;

  const CollocationSet& collocation() const { return points_; }
  FieldModel& model() { return *model_; }

  /// True when this trainer captures/replays execution plans.
  bool graph_enabled() const { return config_.graph == GraphMode::kOn; }

  /// Optimizer-pass statistics for each captured shard plan (observability:
  /// the thunk/arena reduction per training plan; plan_passes_test pins
  /// them). Empty until the first captured step.
  std::vector<autodiff::plan::PassStats> plan_pass_stats() const;

  /// Replaces the interior collocation set (e.g. to change the batch size
  /// between fit() calls). Any captured execution plan is invalidated on
  /// the next step, exactly like a resample. Every rebinding of the
  /// interior tensor goes through here (resample with a new shape,
  /// snapshot/checkpoint restore, dist peer-loss rollback) so the plan
  /// key's generation always moves with it.
  void replace_interior(Tensor interior) {
    points_.interior = std::move(interior);
    ++interior_generation_;
  }

 private:
  /// Interior row range [begin, end) of one shard.
  using RowRange = std::pair<std::int64_t, std::int64_t>;

  /// Loss + parameter gradients of one shard, or of the whole step after
  /// the reduction.
  struct LossAndGrads {
    double total = 0.0;
    /// Weighted sum of the auxiliary terms: the PDE component of the loss
    /// is total - aux_weighted.
    double aux_weighted = 0.0;
    std::vector<std::pair<std::string, double>> aux;  ///< unweighted values
    std::vector<Tensor> grads;
  };

  /// An auxiliary loss term pinned by a captured plan: replay recomputes
  /// `value` in place, and the host loop re-reads it per epoch.
  struct AuxBinding {
    std::string name;
    double weight = 0.0;
    Tensor value;
  };

  /// One shard's captured step: the plan plus the buffers the host loop
  /// reads (loss, grads, aux) or refreshes (points, curriculum weights) per
  /// replay.
  struct ShardPlan {
    autodiff::plan::ExecutionPlan plan;
    Tensor loss;
    std::vector<Tensor> grads;
    Tensor points;   ///< pinned slice of the interior set
    Tensor weights;  ///< pinned shard weights (undefined without curriculum)
    std::vector<AuxBinding> aux;  ///< first shard only
  };

  /// How the shard stage computes a shard this step.
  enum class ShardMode { kEager, kCapture, kReplay };

  /// True when the interior is sharded across dist ranks (world > 1).
  bool dist_active() const;

  /// Partition: the interior row ranges this process computes. In process,
  /// min(threads, rows) contiguous ranges; in dist mode, this rank's range
  /// out of min(world, rows), or none when the rank has no rows.
  std::vector<RowRange> shard_ranges() const;

  /// One step: partition -> shard stage (one run_shard per range on the
  /// global pool) -> reduce.
  LossAndGrads compute(std::int64_t epoch);

  /// Shard stage for shard `s`: eager, capture into plans_[s], or replay of
  /// plans_[s] after refreshing its pinned slices. `weights` are the
  /// full-interior curriculum weights (null without curriculum).
  LossAndGrads run_shard(std::size_t s, RowRange rows, const Tensor* weights,
                         ShardMode mode);

  /// The eager loss + gradient body: sum(w * r^2) / (N_total * R) over the
  /// shard, plus the auxiliary losses when `include_aux`, then the
  /// parameter gradients. With `capture` set it runs inside a CaptureScope
  /// on capture->plan and pins the buffers replay reads back.
  LossAndGrads eager_shard(const Tensor& shard_points,
                           const Tensor& shard_weights, bool include_aux,
                           ShardPlan* capture);

  /// Reduction: sums the shards in shard order (exact zeros for none),
  /// then in dist mode all-reduces [loss, aux_weighted, stop, grads...] in
  /// rank order.
  LossAndGrads reduce(std::vector<LossAndGrads> shards, std::int64_t epoch);

  /// Everything a captured plan depends on besides buffer contents; any
  /// change means the recorded kernel sequence (or its chunking) would
  /// diverge from eager, so the plan must be re-captured.
  struct PlanKey {
    const void* interior_data = nullptr;
    /// Monotonic count of interior-tensor *identity* changes (every call
    /// of replace_interior). The data pointer alone is unsafe: the
    /// StoragePool can hand a freed buffer back at the same address for a
    /// different point set (ABA), which would silently replay a stale
    /// plan.
    std::uint64_t interior_generation = 0;
    Shape interior_shape;
    /// The local shard ranges: a dist degrade that changes the world
    /// changes them, and so re-captures.
    std::vector<RowRange> shards;
    std::size_t pool_threads = 0;
    simd::Isa isa = simd::Isa::kScalar;
    bool curriculum = false;
    /// Mixed-precision demotion changes the replayed kernel sequence, so
    /// toggling QPINN_PRECISION between steps forces a re-capture.
    autodiff::Precision precision = autodiff::Precision::kFp64;
    bool operator==(const PlanKey&) const = default;
  };
  PlanKey current_plan_key(const std::vector<RowRange>& shards) const;

  /// In-memory rollback point for divergence recovery.
  struct Snapshot {
    std::int64_t epoch = -1;  ///< last completed epoch at snapshot time
    std::vector<Tensor> params;
    optim::OptimizerState optimizer;
    RngState rng;
    Tensor interior;
  };
  Snapshot take_snapshot(std::int64_t epoch) const;
  void restore_snapshot(const Snapshot& snapshot);

  /// Checkpoint assembly / restore (epoch = last completed epoch).
  TrainingState make_state(std::int64_t epoch) const;
  void restore_state(const TrainingState& state);

  /// Opaque trainer state a rejoining rank receives over the transport
  /// (kSync): last completed epoch, LR scale, recoveries, best loss, and
  /// the resample RNG. apply returns the payload's epoch so fit() can
  /// verify it against the rejoiner's checkpoint.
  std::string make_dist_sync(std::int64_t epoch) const;
  std::int64_t apply_dist_sync(const std::string& payload);

  std::shared_ptr<Problem> problem_;
  std::shared_ptr<FieldModel> model_;
  TrainConfig config_;
  CollocationSet points_;
  Rng resample_rng_{0};
  std::vector<autodiff::Variable> params_;
  std::unique_ptr<optim::Adam> optimizer_;
  std::unique_ptr<optim::LrSchedule> schedule_;
  bool plans_ready_ = false;
  /// Bumped by replace_interior, the only place points_.interior is
  /// rebound to a different tensor (see PlanKey::interior_generation). The
  /// in-place refresh path (copy_into) deliberately does NOT bump — same
  /// buffer, plan stays hot.
  std::uint64_t interior_generation_ = 0;
  PlanKey plan_key_;
  std::vector<ShardPlan> plans_;
  double lr_scale_ = 1.0;  ///< divergence-recovery LR backoff multiplier
  std::int64_t recoveries_ = 0;
  double best_loss_ = std::numeric_limits<double>::infinity();
  std::atomic<bool> stop_requested_{false};
  /// All-reduced sum of the ranks' stop flags from the latest dist step,
  /// so every rank stops at the same epoch (synchronized cooperative
  /// stop).
  double dist_stop_sum_ = 0.0;
};

}  // namespace qpinn::core
