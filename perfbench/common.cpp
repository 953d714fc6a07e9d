// Workload table, span recorder and statistics helpers (see bench.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using qpinn::autodiff::Precision;

const std::vector<Workload>& workloads() {
  // {name, serve, pool_threads, shards, world, precision, adam, lbfgs}
  // Every pool is 1 thread: on the reference VM a 2-thread pool's
  // fork-join per kernel waits on halted vCPUs, and its epoch times swung
  // 2x between runs of the same code.
  static const std::vector<Workload> all = {
      {"tdse_serial", false, 1, 1, 1, Precision::kFp64, 30, 2},
      {"tdse_sharded_mixed", false, 1, 2, 1, Precision::kMixed, 60, 0},
      {"tdse_dist2", false, 1, 1, 2, Precision::kFp64, 60, 0},
      {"serve_closed", true, 1, 1, 1, Precision::kFp64, 0, 0},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void pin_settings(const Workload& w) {
  qpinn::set_global_threads(w.pool_threads);
  qpinn::autodiff::set_precision_mode(w.precision);
}

void RunResult::fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
}

// ---- tracing -------------------------------------------------------------

namespace {
// The innermost open span (and its request) on this thread.
thread_local std::uint64_t tls_parent = 0;
thread_local std::uint64_t tls_trace = 0;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::median_ms(const char* name) const {
  std::vector<double> ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name) {
        ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
  }
  return median(std::move(ms));
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"spans_recorded\":" << spans_.size()
      << ",\"traceEvents\":[\n";
  const std::size_t n = std::min(spans_.size(), kMaxWrittenSpans);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << "}}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t trace)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = tls_parent;
  span_.trace = trace != 0 ? trace : (tls_trace != 0 ? tls_trace : span_.id);
  span_.thread = thread_tag();
  saved_parent_ = tls_parent;
  saved_trace_ = tls_trace;
  tls_parent = span_.id;
  tls_trace = span_.trace;
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  tls_parent = saved_parent_;
  tls_trace = saved_trace_;
  tracer_->record(span_);
}

// ---- statistics ------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
