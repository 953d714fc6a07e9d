// Shared pieces of the qpinn benchmark driver: workload definitions, the
// in-memory span recorder, metric records and small statistics helpers.
//
// The benchmark drives qpinn only through its public headers. Spans are
// recorded around the calls the benchmark makes into each layer; nothing
// inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "autodiff/precision.hpp"

namespace perfbench {

// ---- workloads -----------------------------------------------------------

/// One named benchmark configuration. Every workload runs the B1 free-packet
/// TDSE problem (or serves its surrogate) and pins each execution setting
/// through the public API, so no environment variable can change it.
struct Workload {
  std::string name;
  bool serve = false;
  std::size_t pool_threads = 1;  ///< qpinn::set_global_threads
  std::size_t shards = 1;        ///< TrainConfig::threads (interior shards)
  std::int64_t world = 1;        ///< loopback ranks (1: single process)
  qpinn::autodiff::Precision precision = qpinn::autodiff::Precision::kFp64;
  std::int64_t adam_epochs = 0;   ///< fixed Adam budget (training)
  std::int64_t lbfgs_rounds = 0;  ///< L-BFGS rounds after Adam (training)
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Relative-L2 target every training workload must reach, evaluated every
/// kEvalEvery Adam epochs and after each L-BFGS round.
inline constexpr double kTargetL2 = 0.49;
inline constexpr std::int64_t kEvalEvery = 10;
/// L-BFGS iterations per second-stage round.
inline constexpr std::int64_t kLbfgsIterations = 3;
/// Training runs from scratch per benchmark run, and serving set-ups;
/// setup_s and the time to target are medians over them.
inline constexpr int kTrainRuns = 5;
inline constexpr int kServeSetups = 5;
/// Model initialization seed: the default recipe's. The workload seed
/// drives the inputs (collocation sets, query streams), not the weights.
inline constexpr std::uint64_t kModelSeed = 0;
/// Serving shape: closed-loop clients, rows per batch (not above the client
/// count, so flushes fill rather than expire), a flush deadline no
/// scheduling stall reaches (so the flush count is exact for a seed), and
/// queries per client in one measured round (serving's unit of time to
/// target).
inline constexpr int kServeClients = 3;
inline constexpr std::int64_t kServeBatch = 3;
inline constexpr std::int64_t kServeFlushUs = 100000;
inline constexpr std::int64_t kServeRoundQueries = 10000;

/// Sets the global pool size and precision mode the workload pins.
void pin_settings(const Workload& w);

// ---- tracing ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// One recorded interval. `parent` is the enclosing span on the same thread
/// (0: none); spans of one request share `trace`.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Thread-safe in-memory span store; written out once the run ends.
class Tracer {
 public:
  Tracer();
  std::uint64_t next_id();
  std::int64_t now_ns() const;
  void record(const Span& span);
  std::size_t size() const;
  /// Median duration in ms of the spans called `name` (0 when none).
  double median_ms(const char* name) const;
  /// Writes the first kMaxWrittenSpans spans in Chrome trace-event JSON.
  void write(const std::string& path) const;
  static constexpr std::size_t kMaxWrittenSpans = 50000;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

/// Records one span around its scope; does nothing when `tracer` is null,
/// so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_trace_ = 0;
};

// ---- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run (untraced or traced).
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;        ///< the end-to-end metrics
  double op_ms_p50 = 0.0;             ///< steady epoch or query latency
  std::vector<std::string> notes;     ///< human-readable detail lines

  void fail(const std::string& why);
};

RunResult run_workload(const Workload& w, std::uint64_t seed, double seconds,
                       Tracer* tracer);

/// Per-layer metrics for `w`: times each public layer call at the
/// workload's settings (see README.md), reconciled against `untraced`.
std::vector<Metric> run_probes(const Workload& w, std::uint64_t seed,
                               Tracer& tracer, const RunResult& untraced,
                               const RunResult& traced);

// ---- statistics ----------------------------------------------------------------

double seconds_since(Clock::time_point t0);
/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double peak_rss_mb();

}  // namespace perfbench
