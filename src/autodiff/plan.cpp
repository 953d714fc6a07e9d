#include "autodiff/plan.hpp"

#include <atomic>
#include <utility>

#include "tensor/kernels.hpp"
#include "util/error.hpp"

namespace qpinn::autodiff::plan {

namespace {

thread_local ExecutionPlan* g_recorder = nullptr;
thread_local CaptureKind g_capture_kind = CaptureKind::kTraining;

std::atomic<std::uint64_t> g_captured{0};
std::atomic<std::uint64_t> g_replays{0};
std::atomic<std::uint64_t> g_fallbacks{0};
std::atomic<std::uint64_t> g_optimized{0};
std::atomic<std::uint64_t> g_thunks_eliminated{0};
std::atomic<std::uint64_t> g_arena_bytes_saved{0};

void run_thunk(Thunk& t) {
  switch (t.kind) {
    case ThunkKind::kUnary:
      t.k1(t.out, t.ins[0]);
      break;
    case ThunkKind::kUnaryScalar:
      t.k1s(t.out, t.ins[0], t.scalar);
      break;
    case ThunkKind::kBinary:
      t.k2(t.out, t.ins[0], t.ins[1]);
      break;
    case ThunkKind::kAxpyAcc:
      kernels::axpy_inplace(t.out, t.scalar, t.ins[0]);
      break;
    case ThunkKind::kCopyAxpy:
      kernels::copy_into(t.out, t.ins[0]);
      kernels::axpy_inplace(t.out, t.scalar, t.ins[1]);
      break;
    case ThunkKind::kZero:
      kernels::fill_zero(t.out);
      break;
    case ThunkKind::kOpaque:
      t.run();
      break;
  }
}

void check_not_forward_only() {
  if (g_capture_kind == CaptureKind::kForwardOnly) {
    throw ValueError(
        "gradient-accumulation kernel recorded under a forward-only capture; "
        "inference must not build a tape (wrap the forward pass in "
        "NoGradGuard)");
  }
}

}  // namespace

void ExecutionPlan::replay() const {
  for (Thunk& t : steps_) run_thunk(t);
  g_replays.fetch_add(1, std::memory_order_relaxed);
}

void ExecutionPlan::set_thunks(std::vector<Thunk> thunks) {
  steps_ = std::move(thunks);
  seen_buffers_.clear();
  arena_buffers_ = 0;
  arena_bytes_ = 0;
  for (const Thunk& t : steps_) {
    if (seen_buffers_.insert(t.out.data()).second) {
      arena_buffers_ += 1;
      arena_bytes_ +=
          static_cast<std::size_t>(t.out.numel()) * sizeof(double);
    }
  }
}

std::vector<Thunk> ExecutionPlan::take_thunks() {
  std::vector<Thunk> out = std::move(steps_);
  steps_.clear();
  seen_buffers_.clear();
  arena_buffers_ = 0;
  arena_bytes_ = 0;
  return out;
}

void ExecutionPlan::clear() {
  steps_.clear();
  seen_buffers_.clear();
  arena_buffers_ = 0;
  arena_bytes_ = 0;
  pass_stats_ = PassStats{};
}

CaptureScope::CaptureScope(ExecutionPlan& plan, CaptureKind kind)
    : prev_(g_recorder), prev_kind_(g_capture_kind) {
  g_recorder = &plan;
  g_capture_kind = kind;
}

CaptureScope::~CaptureScope() {
  g_recorder = prev_;
  g_capture_kind = prev_kind_;
  g_captured.fetch_add(1, std::memory_order_relaxed);
}

bool capturing() { return g_recorder != nullptr; }

bool capturing_forward_only() {
  return g_recorder != nullptr && g_capture_kind == CaptureKind::kForwardOnly;
}

void record_thunk(Thunk thunk) {
  ExecutionPlan* p = g_recorder;
  if (p == nullptr) return;
  if (p->seen_buffers_.insert(thunk.out.data()).second) {
    p->arena_buffers_ += 1;
    p->arena_bytes_ +=
        static_cast<std::size_t>(thunk.out.numel()) * sizeof(double);
  }
  p->steps_.push_back(std::move(thunk));
}

void record_unary(const Tensor& out, UnaryKernel k, const Tensor& a) {
  if (g_recorder == nullptr) return;
  Thunk t;
  t.kind = ThunkKind::kUnary;
  t.k1 = k;
  t.out = out;
  t.ins = {a};
  record_thunk(std::move(t));
}

void record_unary_scalar(const Tensor& out, UnaryScalarKernel k,
                         const Tensor& a, double s) {
  if (g_recorder == nullptr) return;
  Thunk t;
  t.kind = ThunkKind::kUnaryScalar;
  t.k1s = k;
  t.out = out;
  t.ins = {a};
  t.scalar = s;
  record_thunk(std::move(t));
}

void record_binary(const Tensor& out, BinaryKernel k, const Tensor& a,
                   const Tensor& b) {
  if (g_recorder == nullptr) return;
  Thunk t;
  t.kind = ThunkKind::kBinary;
  t.k2 = k;
  t.out = out;
  t.ins = {a, b};
  record_thunk(std::move(t));
}

void record_axpy_acc(const Tensor& dst, double s, const Tensor& src) {
  if (g_recorder == nullptr) return;
  check_not_forward_only();
  Thunk t;
  t.kind = ThunkKind::kAxpyAcc;
  t.out = dst;
  t.ins = {src};
  t.scalar = s;
  record_thunk(std::move(t));
}

void record_copy_axpy(const Tensor& dst, const Tensor& first, double s,
                      const Tensor& src) {
  if (g_recorder == nullptr) return;
  check_not_forward_only();
  Thunk t;
  t.kind = ThunkKind::kCopyAxpy;
  t.out = dst;
  t.ins = {first, src};
  t.scalar = s;
  record_thunk(std::move(t));
}

void record_zero(const Tensor& out) {
  if (g_recorder == nullptr) return;
  Thunk t;
  t.kind = ThunkKind::kZero;
  t.out = out;
  record_thunk(std::move(t));
}

void record_opaque(const Tensor& out, std::vector<Tensor> ins,
                   std::function<void()> run) {
  if (g_recorder == nullptr) return;
  Thunk t;
  t.kind = ThunkKind::kOpaque;
  t.run = std::move(run);
  t.out = out;
  t.ins = std::move(ins);
  record_thunk(std::move(t));
}

PlanStats plan_stats() {
  PlanStats s;
  s.plans_captured = g_captured.load(std::memory_order_relaxed);
  s.replays = g_replays.load(std::memory_order_relaxed);
  s.fallbacks = g_fallbacks.load(std::memory_order_relaxed);
  s.plans_optimized = g_optimized.load(std::memory_order_relaxed);
  s.thunks_eliminated = g_thunks_eliminated.load(std::memory_order_relaxed);
  s.arena_bytes_saved = g_arena_bytes_saved.load(std::memory_order_relaxed);
  return s;
}

void reset_plan_stats() {
  g_captured.store(0, std::memory_order_relaxed);
  g_replays.store(0, std::memory_order_relaxed);
  g_fallbacks.store(0, std::memory_order_relaxed);
  g_optimized.store(0, std::memory_order_relaxed);
  g_thunks_eliminated.store(0, std::memory_order_relaxed);
  g_arena_bytes_saved.store(0, std::memory_order_relaxed);
}

void count_fallback() { g_fallbacks.fetch_add(1, std::memory_order_relaxed); }

void count_optimized(const PassStats& s) {
  g_optimized.fetch_add(1, std::memory_order_relaxed);
  g_thunks_eliminated.fetch_add(s.thunks_before - s.thunks_after,
                                std::memory_order_relaxed);
  g_arena_bytes_saved.fetch_add(s.arena_bytes_before - s.arena_bytes_after,
                                std::memory_order_relaxed);
}

}  // namespace qpinn::autodiff::plan
