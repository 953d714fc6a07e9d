// fp32 executor layer for mixed-precision plan replay.
//
// These are raw-buffer kernels (float* / const float*, explicit shapes),
// not Tensor operations: the fp32 shadow buffers that mixed-precision
// replay writes (see src/autodiff/precision.cpp) are plain pooled
// std::vector<float> storage with no Tensor wrapper. Shapes were already
// validated when the fp64 plan was captured, so this layer does no
// checking — it only dispatches through simd::active_f32() with the same
// chunking/grain policy as the fp64 paths in kernels.cpp.
//
// This header and its .cpp are, together with the SIMD layer, the only
// code allowed to convert between double and float (enforced by
// tools/qpinn_lint.py banned-naked-float-cast): downcast/upcast are the
// sole precision boundary, and every scalar immediate crossing into a
// kernel is cast exactly once at entry.
//
// Reductions accumulate in and return double (the fp32 tables promote
// per element), preserving the fp64 loss-accumulation contract of mixed
// mode.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/simd.hpp"

namespace qpinn::kernels_f32 {

// ---- precision boundary --------------------------------------------------

/// dst[i] = (float)src[i]. Runs on every replay of a demoted plan for
/// fp64-resident inputs (parameters included), which is what makes Adam's
/// fp64 master-weight updates visible to the fp32 sweeps.
void downcast(float* dst, const double* src, std::size_t n);
/// dst[i] = (double)src[i] — exact (every float is a double).
void upcast(double* dst, const float* src, std::size_t n);

// ---- elementwise ---------------------------------------------------------

/// o[i] = a[i] op b[i], contiguous same length.
void bin_same(simd::BinOp op, const float* a, const float* b, float* o,
              std::size_t n);
/// o[r][c] = a[r][c] op b[c] (rank-2 row broadcast, the bias pattern).
void bin_row(simd::BinOp op, const float* a, const float* b, float* o,
             std::size_t rows, std::size_t cols);
/// o[i] = a[i] op s (scalar right operand, read from the fp64 plan buffer
/// at replay time).
void bin_scalar_rhs(simd::BinOp op, const float* a, double s, float* o,
                    std::size_t n);
/// o[i] = s op b[i] (scalar left operand).
void bin_scalar_lhs(simd::BinOp op, double s, const float* b, float* o,
                    std::size_t n);

void neg(const float* a, float* o, std::size_t n);
void square(const float* a, float* o, std::size_t n);
void sqrt(const float* a, float* o, std::size_t n);
void reciprocal(const float* a, float* o, std::size_t n);
void relu(const float* a, float* o, std::size_t n);
void abs(const float* a, float* o, std::size_t n);
void step(const float* a, float* o, std::size_t n);
void sign(const float* a, float* o, std::size_t n);
void tanh(const float* a, float* o, std::size_t n);
void exp(const float* a, float* o, std::size_t n);
void log(const float* a, float* o, std::size_t n);
void sin(const float* a, float* o, std::size_t n);
void cos(const float* a, float* o, std::size_t n);
void sigmoid(const float* a, float* o, std::size_t n);
void softplus(const float* a, float* o, std::size_t n);

void scale(const float* a, double s, float* o, std::size_t n);
void add_scalar(const float* a, double s, float* o, std::size_t n);
void pow_scalar(const float* a, double p, float* o, std::size_t n);

/// o[r][c] = tanh(a[r][c] + b[c]) — fused hidden-layer forward.
void bias_tanh(const float* a, const float* b, float* o, std::size_t rows,
               std::size_t cols);
/// o[r][c] = sin(a[r][c] + b[c]).
void bias_sin(const float* a, const float* b, float* o, std::size_t rows,
              std::size_t cols);
/// o[i] = g[i] * (1 - t[i]^2) — fused tanh backward.
void tanh_grad(const float* g, const float* t, float* o, std::size_t n);

// ---- data movement -------------------------------------------------------

void copy(float* dst, const float* src, std::size_t n);
void fill_zero(float* o, std::size_t n);
/// o[i] = (float)v for all i — scalar broadcast_to, value read from the
/// fp64 plan buffer at replay time.
void fill_value(float* o, double v, std::size_t n);
/// dst[i] += s * src[i] (gradient accumulation in kAxpyAcc/kCopyAxpy).
void axpy(float* dst, double s, const float* src, std::size_t n);
/// out[m][n] = a[n][m]^T.
void transpose(const float* a, float* o, std::int64_t n, std::int64_t m);
/// o[c] = sum_r a[r][c] — the rank-2 row-collapse of sum_to.
void sum_to_rows(const float* a, float* o, std::size_t rows,
                 std::size_t cols);

// ---- matmul --------------------------------------------------------------

/// out[n,m] = a[n,k] * b[k,m].
void matmul(const float* a, const float* b, float* o, std::int64_t n,
            std::int64_t k, std::int64_t m);
/// out[n,m] = a[k,n]^T * b[k,m]; bit-identical to matmul over
/// transpose(a) (same micro-kernel rule, same row chunking).
void matmul_tn(const float* a, const float* b, float* o, std::int64_t n,
               std::int64_t k, std::int64_t m);

// ---- reductions (double accumulation) ------------------------------------

double sum(const float* a, std::size_t n);
double square_sum(const float* a, std::size_t n);
/// sum_i w[i] * a[i]^2, same-shape contiguous operands.
double weighted_square_sum(const float* w, const float* a, std::size_t n);
/// sum_r w[r] * sum_c a[r][c]^2 — per-row weights (the PINN loss shape).
double weighted_square_sum_rows(const float* w, const float* a,
                                std::size_t rows, std::size_t cols);

}  // namespace qpinn::kernels_f32
