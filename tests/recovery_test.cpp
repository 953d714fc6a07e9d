// Divergence recovery, fault injection, resume, and graceful shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

#include "test_guards.hpp"

namespace qpinn::core {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().clear(); }
  void TearDown() override { FaultInjector::instance().clear(); }

  std::string temp_dir(const std::string& name) const {
    return ::testing::TempDir() + name;
  }
};

TrainConfig tiny_config(std::int64_t epochs) {
  TrainConfig config = default_train_config(epochs, /*seed=*/7);
  config.sampling.n_interior_x = 10;
  config.sampling.n_interior_t = 10;
  config.sampling.n_initial = 16;
  config.sampling.n_boundary = 8;
  config.metric_nx = 16;
  config.metric_nt = 8;
  return config;
}

std::shared_ptr<FieldModel> tiny_model(const SchrodingerProblem& problem,
                                       std::uint64_t seed) {
  FieldModelConfig config = default_model_config(problem, seed);
  config.hidden = {10, 10};
  config.fourier = nn::FourierConfig{4, 1.0};
  config.hard_ic = HardIc{problem.config().initial, problem.domain().t_lo};
  return make_field_model(config);
}

void expect_params_equal(const FieldModel& a_model, const FieldModel& b_model) {
  const auto pa = a_model.parameters();
  const auto pb = b_model.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Tensor& a = pa[i].value();
    const Tensor& b = pb[i].value();
    ASSERT_TRUE(a.same_shape(b));
    for (std::int64_t j = 0; j < a.numel(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "parameter " << i << " element " << j;
    }
  }
}

TEST_F(RecoveryTest, InjectedNanRollsBackAndCompletes) {
  // The rollback runs on the eager tape and on the captured plan alike;
  // each mode compares only with itself.
  for (const GraphMode graph : {GraphMode::kOff, GraphMode::kOn}) {
    SCOPED_TRACE(graph == GraphMode::kOn ? "graph on" : "graph off");
    FaultInjector::instance().clear();  // restart the hit count
    auto problem = make_free_packet_problem();
    auto model = tiny_model(*problem, 3);
    TrainConfig config = tiny_config(16);
    config.graph = graph;
    RecoveryConfig recovery;
    recovery.max_recoveries = 3;
    recovery.lr_backoff = 0.5;
    recovery.snapshot_every = 4;  // snapshots after epochs 3, 7, 11, ...
    config.recovery = recovery;

    FaultInjector::instance().arm(kFaultTrainerNanLoss, /*at=*/10);
    Trainer trainer(problem, model, config);
    const TrainResult result = trainer.fit();

    EXPECT_EQ(result.recoveries, 1);
    ASSERT_EQ(result.recovery_events.size(), 1u);
    const RecoveryEvent& event = result.recovery_events[0];
    EXPECT_EQ(event.detected_epoch, 10);
    EXPECT_EQ(event.rollback_epoch, 7);
    EXPECT_DOUBLE_EQ(event.lr_scale, 0.5);
    EXPECT_NE(event.reason.find("non-finite"), std::string::npos);

    // The run still completed every epoch with a finite loss.
    EXPECT_FALSE(result.diverged);
    EXPECT_EQ(result.epochs_run, 16);
    ASSERT_EQ(result.history.size(), 16u);
    for (std::size_t e = 0; e < result.history.size(); ++e) {
      EXPECT_EQ(result.history[e].epoch, static_cast<std::int64_t>(e));
      EXPECT_TRUE(std::isfinite(result.history[e].total_loss));
    }

    // The LR backoff stays applied: epochs after the recovery run at half
    // the schedule of an identical clean run.
    auto clean_model = tiny_model(*problem, 3);
    TrainConfig clean_config = tiny_config(16);
    clean_config.graph = graph;
    Trainer clean(problem, clean_model, clean_config);
    const TrainResult clean_result = clean.fit();
    EXPECT_DOUBLE_EQ(result.history.back().lr,
                     0.5 * clean_result.history.back().lr);
  }
}

TEST_F(RecoveryTest, InjectedExplosionTriggersWindowDetector) {
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 4);
  TrainConfig config = tiny_config(12);
  RecoveryConfig recovery;
  recovery.explosion_factor = 100.0;
  recovery.explosion_window = 8;
  recovery.snapshot_every = 3;  // snapshots after epochs 2, 5, 8, ...
  config.recovery = recovery;

  FaultInjector::instance().arm(kFaultTrainerExplodeLoss, /*at=*/6);
  Trainer trainer(problem, model, config);
  const TrainResult result = trainer.fit();

  EXPECT_EQ(result.recoveries, 1);
  ASSERT_EQ(result.recovery_events.size(), 1u);
  EXPECT_EQ(result.recovery_events[0].detected_epoch, 6);
  EXPECT_EQ(result.recovery_events[0].rollback_epoch, 5);
  EXPECT_NE(result.recovery_events[0].reason.find("exploded"),
            std::string::npos);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.epochs_run, 12);
}

TEST_F(RecoveryTest, GivesUpGracefullyAfterMaxRecoveries) {
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 5);
  TrainConfig config = tiny_config(12);
  RecoveryConfig recovery;
  recovery.max_recoveries = 2;
  recovery.snapshot_every = 2;
  config.recovery = recovery;

  // Every step from epoch 2 on produces a NaN loss.
  constexpr std::int64_t kForever = 1 << 20;
  FaultInjector::instance().arm(kFaultTrainerNanLoss, /*at=*/2, kForever);
  Trainer trainer(problem, model, config);
  TrainResult result;
  EXPECT_NO_THROW(result = trainer.fit());

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.recoveries, 2);
  // History stops at the last good epoch and the restored model is usable.
  ASSERT_FALSE(result.history.empty());
  EXPECT_LT(result.history.back().epoch, 2);
  EXPECT_TRUE(std::isfinite(result.final_loss));
  EXPECT_TRUE(std::isfinite(result.final_l2));
}

TEST_F(RecoveryTest, WithoutRecoveryInjectedNanStillThrows) {
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 6);
  TrainConfig config = tiny_config(8);
  FaultInjector::instance().arm(kFaultTrainerNanLoss, /*at=*/2);
  Trainer trainer(problem, model, config);
  EXPECT_THROW(trainer.fit(), NumericsError);
}

TEST_F(RecoveryTest, ResumeReproducesUninterruptedRunBitForBit) {
  // This test asserts the fp64-mode contract (resume == uninterrupted
  // bit-for-bit); pin fp64 so a QPINN_PRECISION=mixed run still passes.
  PrecisionGuard precision_guard;
  // Resume holds on the eager tape and on the captured plan alike; each
  // mode compares only with itself.
  for (const GraphMode graph : {GraphMode::kOff, GraphMode::kOn}) {
    const std::string mode = graph == GraphMode::kOn ? "on" : "off";
    SCOPED_TRACE("graph " + mode);
    auto config_for = [graph](std::int64_t epochs) {
      TrainConfig config = tiny_config(epochs);
      config.graph = graph;
      return config;
    };
    auto problem = make_free_packet_problem();
    const std::string dir = temp_dir("resume_ckpt_" + mode);

    // Uninterrupted reference: 24 epochs straight through.
    auto model_full = tiny_model(*problem, 9);
    Trainer full(problem, model_full, config_for(24));
    const TrainResult full_result = full.fit();

    // "Killed" run: same seed and schedule, stops after 16 epochs, final
    // checkpoint only. (Config must match the full run except for
    // `epochs`, since tiny_config derives the LR schedule from the epoch
    // count.)
    auto model_killed = tiny_model(*problem, 9);
    TrainConfig killed_config = config_for(24);
    killed_config.epochs = 16;
    CheckpointConfig ckpt;
    ckpt.dir = dir;
    killed_config.checkpoint = ckpt;
    Trainer killed(problem, model_killed, killed_config);
    killed.fit();
    const std::string last = dir + "/last.qckpt";
    ASSERT_TRUE(std::filesystem::exists(last));

    // Resumed run: a fresh process reconstructs the model with the same
    // config/seed (non-trainable state such as the Fourier projection is
    // reproduced by construction, not checkpointed), then the checkpoint
    // overwrites every trainable parameter and continues to 24.
    auto model_resumed = tiny_model(*problem, 9);
    TrainConfig resumed_config = config_for(24);
    resumed_config.resume_from = last;
    Trainer resumed(problem, model_resumed, resumed_config);
    const TrainResult resumed_result = resumed.fit();

    EXPECT_EQ(resumed_result.start_epoch, 16);
    EXPECT_EQ(resumed_result.epochs_run, 8);
    ASSERT_FALSE(resumed_result.history.empty());
    EXPECT_EQ(resumed_result.history.front().epoch, 16);
    EXPECT_EQ(resumed_result.history.back().epoch, 23);

    // Identical parameters and loss — not merely close.
    expect_params_equal(*model_full, *model_resumed);
    EXPECT_EQ(full_result.final_loss, resumed_result.final_loss);
    EXPECT_EQ(full_result.final_l2, resumed_result.final_l2);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(RecoveryTest, ResumeFallsBackToBestWhenLastIsCorrupt) {
  auto problem = make_free_packet_problem();
  const std::string dir = temp_dir("fallback_ckpt");
  auto model = tiny_model(*problem, 12);
  TrainConfig config = tiny_config(8);
  CheckpointConfig ckpt;
  ckpt.dir = dir;
  config.checkpoint = ckpt;
  Trainer trainer(problem, model, config);
  trainer.fit();
  const std::string last = dir + "/last.qckpt";
  const std::string best = dir + "/best.qckpt";
  ASSERT_TRUE(std::filesystem::exists(last));
  ASSERT_TRUE(std::filesystem::exists(best));

  // Tear last.qckpt mid-file; the CRC trailer turns this into an IoError
  // on load, and resume must fall back to the intact best.qckpt.
  {
    std::fstream file(last,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(64);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);  // guaranteed different
    file.seekp(64);
    file.write(&byte, 1);
  }
  auto model_resumed = tiny_model(*problem, 12);
  TrainConfig resumed_config = tiny_config(8);
  resumed_config.epochs = 10;
  resumed_config.resume_from = last;
  Trainer resumed(problem, model_resumed, resumed_config);
  const TrainResult result = resumed.fit();
  EXPECT_GE(result.start_epoch, 1);
  EXPECT_EQ(result.history.back().epoch, 9);

  // With no intact sibling left, the original error must surface.
  std::filesystem::remove(best);
  auto model_stuck = tiny_model(*problem, 12);
  TrainConfig stuck_config = tiny_config(8);
  stuck_config.resume_from = last;
  Trainer stuck(problem, model_stuck, stuck_config);
  EXPECT_THROW(stuck.fit(), IoError);
  std::filesystem::remove_all(dir);
}

TEST_F(RecoveryTest, StopFlagInterruptsAndWritesFinalCheckpoint) {
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 10);
  TrainConfig config = tiny_config(50);
  CheckpointConfig ckpt;
  ckpt.dir = temp_dir("stop_ckpt");
  config.checkpoint = ckpt;
  std::atomic<bool> stop{true};  // pre-set: stop after the first epoch
  config.stop_flag = &stop;

  Trainer trainer(problem, model, config);
  const TrainResult result = trainer.fit();

  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.epochs_run, 1);
  const std::string last = ckpt.dir + "/last.qckpt";
  ASSERT_TRUE(std::filesystem::exists(last));
  const TrainingState state =
      Checkpointer::load_state(last, model->named_parameters());
  EXPECT_EQ(state.epoch, 0);
  std::filesystem::remove_all(ckpt.dir);
}

TEST_F(RecoveryTest, PeriodicCheckpointsRotateLastAndBest) {
  auto problem = make_free_packet_problem();
  auto model = tiny_model(*problem, 11);
  TrainConfig config = tiny_config(10);
  CheckpointConfig ckpt;
  ckpt.dir = temp_dir("rotate_ckpt");
  ckpt.every = 4;
  config.checkpoint = ckpt;

  Trainer trainer(problem, model, config);
  trainer.fit();

  EXPECT_TRUE(std::filesystem::exists(ckpt.dir + "/last.qckpt"));
  EXPECT_TRUE(std::filesystem::exists(ckpt.dir + "/best.qckpt"));
  const TrainingState state = Checkpointer::load_state(
      ckpt.dir + "/last.qckpt", model->named_parameters());
  EXPECT_EQ(state.epoch, 9);  // final graceful write wins the rotation
  std::filesystem::remove_all(ckpt.dir);
}

TEST_F(RecoveryTest, RecoveryConfigValidation) {
  RecoveryConfig config;
  config.lr_backoff = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = RecoveryConfig{};
  config.explosion_factor = 0.5;
  EXPECT_THROW(config.validate(), ConfigError);
  config = RecoveryConfig{};
  config.max_recoveries = -1;
  EXPECT_THROW(config.validate(), ConfigError);
  config = RecoveryConfig{};
  config.snapshot_every = 0;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace qpinn::core
