// End-to-end runs of the four workloads (see README.md for what each
// measures and why it was chosen).
#include <atomic>
#include <barrier>
#include <cmath>
#include <complex>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sessions.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = qpinn::core;
namespace serve = qpinn::serve;
using qpinn::Tensor;

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
/// `to_target_s` runs from the first timed operation, so the time to target
/// is it plus the median set-up.
void set_end_to_end(RunResult& r, double setup_s, double to_target_s,
                    double op_ms_p50, double op_ms_p90, double ops_per_s,
                    double final_l2) {
  r.op_ms_p50 = op_ms_p50;
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"time_to_target_s", setup_s + to_target_s, "s"},
      {"op_ms_p50", op_ms_p50, "ms"},
      {"op_ms_p90", op_ms_p90, "ms"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"final_l2", final_l2, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

}  // namespace

// ---- sessions ----------------------------------------------------------------

core::TrainConfig train_config(const Workload& w, std::uint64_t seed) {
  core::TrainConfig tc = core::default_train_config(w.adam_epochs, seed);
  tc.threads = w.shards;
  tc.graph = w.world > 1 ? core::GraphMode::kOff : core::GraphMode::kOn;
  tc.second_stage.lbfgs.max_iterations = kLbfgsIterations;
  return tc;
}

TrainSession::TrainSession(const Workload& w, std::uint64_t seed,
                           Tracer* tracer)
    : tracer_(tracer) {
  {
    ScopedSpan span(tracer_, "make_free_packet_problem");
    problem_ = core::make_free_packet_problem();
    (void)problem_->reference();
  }
  if (w.world > 1) {
    qpinn::dist::TransportOptions options;
    // A preempted rank on a loaded host is slow, not lost.
    options.message_timeout_ms = 10000;
    options.heartbeat_timeout_ms = 30000;
    comms_ = qpinn::dist::Communicator::loopback(w.world, options);
    rank_threads_ = std::make_unique<qpinn::ThreadPool>(
        static_cast<std::size_t>(w.world - 1));
  }
  for (std::int64_t rank = 0; rank < w.world; ++rank) {
    ScopedSpan span(tracer_, "Trainer::Trainer");
    core::TrainConfig tc = train_config(w, seed);
    if (!comms_.empty()) tc.dist = comms_[static_cast<std::size_t>(rank)];
    trainers_.push_back(std::make_unique<core::Trainer>(
        problem_, core::make_model_for(*problem_, kModelSeed, true), tc));
  }
  ScopedSpan span(tracer_, "Trainer::step(first)");
  step(0);
}

TrainSession::~TrainSession() {
  rank_threads_.reset();
  for (const auto& comm : comms_) comm->shutdown();
}

core::EpochRecord TrainSession::step(std::int64_t epoch) {
  std::vector<std::future<void>> others;
  for (std::size_t r = 1; r < trainers_.size(); ++r) {
    others.push_back(rank_threads_->submit([this, r, epoch] {
      ScopedSpan span(tracer_, "Trainer::step(rank)");
      trainers_[r]->step(epoch);
    }));
  }
  core::EpochRecord record;
  std::exception_ptr error;
  try {
    record = trainers_.front()->step(epoch);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : others) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return record;
}

bool TrainSession::ranks_identical() {
  const auto lead_params = lead().model().parameters();
  for (std::size_t r = 1; r < trainers_.size(); ++r) {
    const auto params = trainers_[r]->model().parameters();
    if (params.size() != lead_params.size()) return false;
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Tensor& a = lead_params[i].value();
      const Tensor& b = params[i].value();
      if (a.numel() != b.numel() ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(double)) !=
              0) {
        return false;
      }
    }
  }
  return true;
}

serve::QueryQueueConfig serve_queue_config() {
  serve::QueryQueueConfig config;
  config.flush_us = kServeFlushUs;
  config.workers = 1;
  return config;
}

ServeSession::ServeSession(Tracer* tracer) {
  {
    ScopedSpan span(tracer, "make_free_packet_problem");
    problem = core::make_free_packet_problem();
    (void)problem->reference();
  }
  model = core::make_model_for(*problem, kModelSeed, true);
  {
    ScopedSpan span(tracer, "CompiledModel::compile");
    compiled = serve::CompiledModel::compile(model, kServeBatch, {},
                                             /*lanes=*/1);
  }
  registry = std::make_shared<serve::ModelRegistry>();
  registry->publish(compiled);
  queue = std::make_unique<serve::QueryQueue>(registry, serve_queue_config());
  ScopedSpan span(tracer, "QueryQueue::query(warm-up)");
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([this, c] {
      for (int q = 0; q < 100; ++q) (void)queue->query(-1.0 + 0.01 * q, 0.1 * c);
    });
  }
  for (auto& t : clients) t.join();
}

// ---- training ------------------------------------------------------------------

namespace {

RunResult run_training(const Workload& w, std::uint64_t seed, double seconds,
                       Tracer* tracer) {
  RunResult r;
  ScopedSpan root(tracer, "workload");

  // kTrainRuns training runs from scratch on the same inputs. Each is timed
  // from its set-up to the L2 target; the last one goes on through the
  // fixed budget and then takes steady epochs until `seconds` of timed
  // training have passed, which add timing samples only.
  std::vector<double> setups;
  std::vector<double> to_target;
  std::vector<double> epoch_ms;
  double timed_s = 0.0;
  double final_l2 = std::nan("");
  std::int64_t lbfgs_iters = 0;
  for (int rep = 0; rep < kTrainRuns; ++rep) {
    const bool last = rep + 1 == kTrainRuns;
    bool ok = true;
    try {
      std::unique_ptr<TrainSession> session;
      {
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span(tracer, "setup");
        session = std::make_unique<TrainSession>(w, seed, tracer);
        setups.push_back(seconds_since(t0));
      }
      const Clock::time_point start = Clock::now();
      double l2 = std::nan("");
      bool reached = false;
      auto evaluate = [&] {
        ScopedSpan span(tracer, "Trainer::evaluate_l2");
        l2 = session->lead().evaluate_l2();
        if (!reached && l2 <= kTargetL2) {
          reached = true;
          to_target.push_back(seconds_since(start));
        }
      };
      auto timed_step = [&](std::int64_t epoch) {
        const Clock::time_point t0 = Clock::now();
        core::EpochRecord rec;
        {
          ScopedSpan span(tracer, "Trainer::step");
          rec = session->step(epoch);
        }
        epoch_ms.push_back(seconds_since(t0) * 1e3);
        if (!std::isfinite(rec.total_loss)) {
          throw std::runtime_error("non-finite loss at epoch " +
                                   std::to_string(epoch));
        }
      };

      std::int64_t epoch = 1;
      for (; epoch < w.adam_epochs && (last || !reached); ++epoch) {
        timed_step(epoch);
        if ((epoch + 1) % kEvalEvery == 0) evaluate();
      }
      for (std::int64_t round = 0; last && round < w.lbfgs_rounds; ++round) {
        qpinn::optim::LbfgsResult res;
        {
          ScopedSpan span(tracer, "Trainer::run_second_stage");
          res = session->lead().run_second_stage(w.adam_epochs);
        }
        lbfgs_iters += res.iterations;
        if (!std::isfinite(res.final_loss)) {
          throw std::runtime_error("non-finite L-BFGS loss");
        }
        evaluate();
      }
      if (!reached) {
        ok = false;
        r.fail("relative L2 target " + fmt(kTargetL2) + " not reached");
      }
      if (last) {
        final_l2 = l2;
        while (timed_s + seconds_since(start) < seconds) timed_step(epoch++);
        if (!(final_l2 <= kTargetL2)) {
          ok = false;
          r.fail("final_l2 " + fmt(final_l2) + " above target " +
                 fmt(kTargetL2));
        }
      }
      if (!session->ranks_identical()) {
        ok = false;
        r.fail("ranks finished with different parameters");
      }
      timed_s += seconds_since(start);
    } catch (const std::exception& e) {
      ok = false;
      r.fail(std::string("training threw: ") + e.what());
    }
    ++r.attempted;
    if (!ok) ++r.failed;
  }

  double sum_ms = 0.0;
  for (double ms : epoch_ms) sum_ms += ms;
  set_end_to_end(r, median(setups),
                 to_target.empty() ? timed_s : median(to_target),
                 percentile(epoch_ms, 0.5), percentile(epoch_ms, 0.9),
                 sum_ms > 0.0 ? 1e3 * static_cast<double>(epoch_ms.size()) / sum_ms
                              : 0.0,
                 final_l2);
  r.notes.push_back("steady epochs " + std::to_string(epoch_ms.size()) +
                    ", L-BFGS iterations " + std::to_string(lbfgs_iters) +
                    ", timed training " + fmt(timed_s) + " s");
  return r;
}

// ---- serving -------------------------------------------------------------------

struct Answer {
  double x, t, u, v;
};

/// Checks one round's answers against a direct CompiledModel::evaluate of
/// the same points, on a second compilation of the served model at a wide
/// batch (so checking costs a fraction of serving), and accumulates the
/// served field's error against the reference. The two batch shapes take
/// different matmul fringe paths, which may differ in the last ulp only.
class AnswerCheck {
 public:
  explicit AnswerCheck(const ServeSession& session)
      : direct_(serve::CompiledModel::compile(session.model, kCheckBatch, {},
                                              /*lanes=*/1)),
        reference_(session.problem->reference()) {}

  void add(const std::vector<Answer>& answers) {
    const auto n = static_cast<std::int64_t>(answers.size());
    xy_.resize(2 * answers.size());
    uv_.resize(2 * answers.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      xy_[2 * i] = answers[i].x;
      xy_[2 * i + 1] = answers[i].t;
    }
    direct_->evaluate_into(xy_.data(), n, uv_.data());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const Answer& a = answers[i];
      const double u = uv_[2 * i];
      const double v = uv_[2 * i + 1];
      const double tol = 1e-12 * (1.0 + std::abs(u) + std::abs(v));
      if (std::abs(a.u - u) > tol || std::abs(a.v - v) > tol) ++mismatches;
      const std::complex<double> psi = reference_(a.x, a.t);
      err_sq_ += std::norm(std::complex<double>(a.u, a.v) - psi);
      ref_sq_ += std::norm(psi);
    }
  }

  /// Relative L2 of everything served so far against the reference.
  double served_l2() const {
    return ref_sq_ > 0.0 ? std::sqrt(err_sq_ / ref_sq_) : 0.0;
  }

  std::int64_t mismatches = 0;

 private:
  static constexpr std::int64_t kCheckBatch = 256;
  std::shared_ptr<const serve::CompiledModel> direct_;
  qpinn::quantum::SpaceTimeField reference_;
  double err_sq_ = 0.0;
  double ref_sq_ = 0.0;
  std::vector<double> xy_;
  std::vector<double> uv_;
};

RunResult run_serving(std::uint64_t seed, double seconds, Tracer* tracer) {
  RunResult r;
  ScopedSpan root(tracer, "workload");

  std::vector<double> setups;
  std::unique_ptr<ServeSession> session;
  for (int rep = 0; rep < kServeSetups; ++rep) {
    session.reset();
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(tracer, "setup");
    session = std::make_unique<ServeSession>(tracer);
    setups.push_back(seconds_since(t0));
  }
  const core::Domain domain = session->problem->domain();
  serve::QueryQueue& queue = *session->queue;

  // Rounds of kServeRoundQueries queries per client until `seconds` of
  // serving have passed. The clients live for the whole run; between rounds
  // they wait on `sync` while the answers are checked, off the clock, so
  // memory stays flat however many queries a run serves.
  std::vector<std::vector<double>> latency_ms(kServeClients);
  std::vector<std::vector<Answer>> answers(kServeClients);
  for (int c = 0; c < kServeClients; ++c) {
    latency_ms[static_cast<std::size_t>(c)].reserve(kServeRoundQueries);
    answers[static_cast<std::size_t>(c)].reserve(kServeRoundQueries);
  }
  std::vector<double> round_p50, round_p90, round_p99, round_qps;
  std::atomic<std::int64_t> errors{0};
  std::barrier<> sync(kServeClients + 1);
  bool done = false;  // written by this thread before a round-start phase
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      qpinn::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(c));
      for (;;) {
        sync.arrive_and_wait();  // round start
        if (done) return;
        latency_ms[ci].clear();
        answers[ci].clear();
        for (std::int64_t q = 0; q < kServeRoundQueries; ++q) {
          const double x = rng.uniform(domain.x_lo, domain.x_hi);
          const double t = rng.uniform(domain.t_lo, domain.t_hi);
          const Clock::time_point q0 = Clock::now();
          try {
            serve::QueryResult res;
            {
              ScopedSpan span(tracer, "QueryQueue::query",
                              tracer ? tracer->next_id() : 0);
              res = queue.query(x, t);
            }
            latency_ms[ci].push_back(seconds_since(q0) * 1e3);
            answers[ci].push_back({x, t, res.u, res.v});
          } catch (const std::exception&) {
            errors.fetch_add(1);
          }
        }
        sync.arrive_and_wait();  // round end
      }
    });
  }
  AnswerCheck check(*session);
  std::int64_t served = 0;
  double served_s = 0.0;
  std::vector<double> lat, round_s;
  while (served_s < seconds) {
    const Clock::time_point start = Clock::now();
    sync.arrive_and_wait();  // round start
    sync.arrive_and_wait();  // round end
    round_s.push_back(seconds_since(start));
    served_s += round_s.back();
    lat.clear();
    for (int c = 0; c < kServeClients; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      lat.insert(lat.end(), latency_ms[ci].begin(), latency_ms[ci].end());
      try {  // the clients wait at the barrier: nothing may escape here
        check.add(answers[ci]);
      } catch (const std::exception& e) {
        r.fail(std::string("checking answers threw: ") + e.what());
      }
      served += static_cast<std::int64_t>(answers[ci].size());
    }
    round_p50.push_back(percentile(lat, 0.5));
    round_p90.push_back(percentile(lat, 0.9));
    round_p99.push_back(percentile(lat, 0.99));
    round_qps.push_back(static_cast<double>(lat.size()) / round_s.back());
  }
  done = true;
  sync.arrive_and_wait();
  for (auto& t : clients) t.join();
  const serve::QueueStats stats = queue.stats();

  r.attempted = served + errors.load();
  r.failed = check.mismatches + errors.load();
  if (errors.load() > 0) r.fail(std::to_string(errors.load()) + " queries threw");
  if (check.mismatches > 0) {
    r.fail(std::to_string(check.mismatches) +
           " answers differ from CompiledModel::evaluate");
  }
  if (served == 0) r.fail("no query answered");
  // Serving's target is one round's work: every client's queries answered.
  set_end_to_end(r, median(setups), median(round_s),
                 median(round_p50), median(round_p90), median(round_qps),
                 check.served_l2());
  r.notes.push_back("queries " + std::to_string(served) + " in " +
                    std::to_string(round_qps.size()) + " rounds, query p99 " +
                    fmt(median(round_p99) * 1e3) + " us, flushes " +
                    std::to_string(stats.batches) + " (" +
                    std::to_string(stats.partial_batches) + " partial)");
  return r;
}

}  // namespace

RunResult run_workload(const Workload& w, std::uint64_t seed, double seconds,
                       Tracer* tracer) {
  pin_settings(w);
  return w.serve ? run_serving(seed, seconds, tracer)
                 : run_training(w, seed, seconds, tracer);
}

}  // namespace perfbench
