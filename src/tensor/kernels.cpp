#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/parallel_for.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"
#include "util/invariant.hpp"

// Checked builds validate every kernel operand's storage/shape agreement
// on entry (catches use-after-move and metadata corruption at the first
// kernel that would otherwise read through a dangling buffer). Release
// builds compile the calls out.
#ifdef QPINN_CHECKED
#define QPINN_KERNEL_VALIDATE(t, site) (t).validate(site)
#else
#define QPINN_KERNEL_VALIDATE(t, site) \
  do {                                 \
  } while (false)
#endif

namespace qpinn::kernels {

namespace {

// Elementwise unary application, parallelized for large tensors.
template <typename F>
void unary_apply_into(Tensor& out, const Tensor& a, F f) {
  QPINN_KERNEL_VALIDATE(a, "kernels.unary");
  QPINN_KERNEL_VALIDATE(out, "kernels.unary");
  QPINN_CHECK_SHAPE(out.same_shape(a), "unary output shape mismatch");
  const double* in = a.data();
  double* o = out.data();
  const std::size_t n = static_cast<std::size_t>(a.numel());
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) o[i] = f(in[i]);
  });
}

template <typename F>
Tensor unary_apply(const Tensor& a, F f) {
  Tensor out = Tensor::uninitialized(a.shape());
  unary_apply_into(out, a, f);
  return out;
}

// Unary application through a SIMD-table kernel (one contiguous sweep per
// parallel chunk).
void unary_simd_into(Tensor& out, const Tensor& a,
                     void (*fn)(const double*, double*, std::size_t)) {
  QPINN_KERNEL_VALIDATE(a, "kernels.unary");
  QPINN_KERNEL_VALIDATE(out, "kernels.unary");
  QPINN_CHECK_SHAPE(out.same_shape(a), "unary output shape mismatch");
  const double* in = a.data();
  double* o = out.data();
  const std::size_t n = static_cast<std::size_t>(a.numel());
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(in + begin, o + begin, end - begin);
  });
}

Tensor unary_simd(const Tensor& a,
                  void (*fn)(const double*, double*, std::size_t)) {
  Tensor out = Tensor::uninitialized(a.shape());
  unary_simd_into(out, a, fn);
  return out;
}

// Same, for kernels parameterized by one scalar.
void unary_simd_s_into(
    Tensor& out, const Tensor& a, double s,
    void (*fn)(const double*, double, double*, std::size_t)) {
  QPINN_KERNEL_VALIDATE(a, "kernels.unary");
  QPINN_KERNEL_VALIDATE(out, "kernels.unary");
  QPINN_CHECK_SHAPE(out.same_shape(a), "unary output shape mismatch");
  const double* in = a.data();
  double* o = out.data();
  const std::size_t n = static_cast<std::size_t>(a.numel());
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(in + begin, s, o + begin, end - begin);
  });
}

Tensor unary_simd_s(const Tensor& a, double s,
                    void (*fn)(const double*, double, double*, std::size_t)) {
  Tensor out = Tensor::uninitialized(a.shape());
  unary_simd_s_into(out, a, s, fn);
  return out;
}

// Strides padded to `rank` with 0 for broadcast dimensions.
std::vector<std::int64_t> broadcast_strides(const Shape& shape,
                                            std::size_t rank) {
  const auto natural = row_major_strides(shape);
  std::vector<std::int64_t> out(rank, 0);
  const std::size_t offset = rank - shape.size();
  for (std::size_t i = 0; i < shape.size(); ++i) {
    out[offset + i] = (shape[i] == 1) ? 0 : natural[i];
  }
  return out;
}

// The four arithmetic binaries take a simd::BinOp selecting the vectorized
// contiguous kernels; the scalar functor `f` stays authoritative for the
// broadcast paths the table does not cover.
template <typename F>
void binary_apply_into(Tensor& out, const Tensor& a, const Tensor& b,
                       simd::BinOp bop, F f) {
  QPINN_KERNEL_VALIDATE(a, "kernels.binary");
  QPINN_KERNEL_VALIDATE(b, "kernels.binary");
  QPINN_KERNEL_VALIDATE(out, "kernels.binary");
  // Fast path: identical shapes — one contiguous SIMD sweep per chunk.
  if (a.same_shape(b)) {
    QPINN_CHECK_SHAPE(out.same_shape(a), "binary output shape mismatch");
    const double* pa = a.data();
    const double* pb = b.data();
    double* o = out.data();
    const std::size_t n = static_cast<std::size_t>(a.numel());
    auto* fn = simd::active().bin_same[bop];
    parallel_for(n, [&](std::size_t begin, std::size_t end) {
      fn(pa + begin, pb + begin, o + begin, end - begin);
    });
    return;
  }
  const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
  QPINN_CHECK_SHAPE(out.shape() == out_shape,
                    "binary output shape mismatch");
  // Fast path: one side is a one-element tensor AND the result keeps the
  // other side's exact shape (a rank-0 scalar against {1,1} must still
  // produce {1,1}, so the shape condition matters).
  if (b.numel() == 1 && out_shape == a.shape()) {
    const double s = b.data()[0];
    unary_apply_into(out, a, [f, s](double x) { return f(x, s); });
    return;
  }
  if (a.numel() == 1 && out_shape == b.shape()) {
    const double s = a.data()[0];
    unary_apply_into(out, b, [f, s](double x) { return f(s, x); });
    return;
  }
  const std::size_t rank = out_shape.size();
  const auto sa = broadcast_strides(a.shape(), rank);
  const auto sb = broadcast_strides(b.shape(), rank);
  const auto so = row_major_strides(out_shape);
  const double* pa = a.data();
  const double* pb = b.data();
  double* o = out.data();
  const std::size_t n = static_cast<std::size_t>(out.numel());

  // Fast path: rank-2 row-broadcast (matrix op row-vector), the common
  // bias-add pattern.
  if (rank == 2 && sa[0] != 0 && sb[0] == 0 && sa[1] == 1 && sb[1] == 1) {
    const std::size_t rows = static_cast<std::size_t>(out_shape[0]);
    const std::size_t cols = static_cast<std::size_t>(out_shape[1]);
    auto* fn = simd::active().bin_row[bop];
    parallel_for(rows, [&](std::size_t begin, std::size_t end) {
      fn(pa + begin * cols, pb, o + begin * cols, end - begin, cols);
    }, /*grain=*/64);
    return;
  }

  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::int64_t rem = static_cast<std::int64_t>(i);
      std::int64_t ia = 0, ib = 0;
      for (std::size_t d = 0; d < rank; ++d) {
        const std::int64_t coord = rem / so[d];
        rem -= coord * so[d];
        ia += coord * sa[d];
        ib += coord * sb[d];
      }
      o[i] = f(pa[ia], pb[ib]);
    }
  });
}

template <typename F>
Tensor binary_apply(const Tensor& a, const Tensor& b, simd::BinOp bop, F f) {
  Tensor out =
      Tensor::uninitialized(broadcast_shapes(a.shape(), b.shape()));
  binary_apply_into(out, a, b, bop, f);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_apply(a, b, simd::kAdd,
                      [](double x, double y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_apply(a, b, simd::kSub,
                      [](double x, double y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_apply(a, b, simd::kMul,
                      [](double x, double y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_apply(a, b, simd::kDiv,
                      [](double x, double y) { return x / y; });
}

Tensor neg(const Tensor& a) { return unary_simd(a, simd::active().neg); }
Tensor scale(const Tensor& a, double s) {
  return unary_simd_s(a, s, simd::active().scale);
}
Tensor add_scalar(const Tensor& a, double s) {
  return unary_simd_s(a, s, simd::active().add_scalar);
}
Tensor exp(const Tensor& a) {
  return unary_apply(a, [](double x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary_apply(a, [](double x) { return std::log(x); });
}
Tensor tanh(const Tensor& a) { return unary_simd(a, simd::active().tanh); }
Tensor sin(const Tensor& a) {
  return unary_apply(a, [](double x) { return std::sin(x); });
}
Tensor cos(const Tensor& a) {
  return unary_apply(a, [](double x) { return std::cos(x); });
}
Tensor sqrt(const Tensor& a) { return unary_simd(a, simd::active().sqrt); }
Tensor reciprocal(const Tensor& a) {
  return unary_simd(a, simd::active().reciprocal);
}
Tensor square(const Tensor& a) {
  return unary_simd(a, simd::active().square);
}
Tensor sigmoid(const Tensor& a) {
  return unary_apply(a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
}
Tensor softplus(const Tensor& a) {
  // Numerically stable log(1 + e^x).
  return unary_apply(a, [](double x) {
    return x > 0.0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
  });
}
Tensor pow_scalar(const Tensor& a, double p) {
  return unary_apply(a, [p](double x) { return std::pow(x, p); });
}
Tensor step(const Tensor& a) { return unary_simd(a, simd::active().step); }
Tensor relu(const Tensor& a) { return unary_simd(a, simd::active().relu); }
Tensor abs(const Tensor& a) { return unary_simd(a, simd::active().abs); }
Tensor sign(const Tensor& a) { return unary_simd(a, simd::active().sign); }

void add_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_apply_into(out, a, b, simd::kAdd,
                    [](double x, double y) { return x + y; });
}
void sub_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_apply_into(out, a, b, simd::kSub,
                    [](double x, double y) { return x - y; });
}
void mul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_apply_into(out, a, b, simd::kMul,
                    [](double x, double y) { return x * y; });
}
void div_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_apply_into(out, a, b, simd::kDiv,
                    [](double x, double y) { return x / y; });
}
void neg_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().neg);
}
void scale_into(Tensor& out, const Tensor& a, double s) {
  unary_simd_s_into(out, a, s, simd::active().scale);
}
void add_scalar_into(Tensor& out, const Tensor& a, double s) {
  unary_simd_s_into(out, a, s, simd::active().add_scalar);
}
void exp_into(Tensor& out, const Tensor& a) {
  unary_apply_into(out, a, [](double x) { return std::exp(x); });
}
void log_into(Tensor& out, const Tensor& a) {
  unary_apply_into(out, a, [](double x) { return std::log(x); });
}
void tanh_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().tanh);
}
void sin_into(Tensor& out, const Tensor& a) {
  unary_apply_into(out, a, [](double x) { return std::sin(x); });
}
void cos_into(Tensor& out, const Tensor& a) {
  unary_apply_into(out, a, [](double x) { return std::cos(x); });
}
void sqrt_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().sqrt);
}
void reciprocal_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().reciprocal);
}
void square_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().square);
}
void sigmoid_into(Tensor& out, const Tensor& a) {
  unary_apply_into(out, a,
                   [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
}
void softplus_into(Tensor& out, const Tensor& a) {
  unary_apply_into(out, a, [](double x) {
    return x > 0.0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
  });
}
void pow_scalar_into(Tensor& out, const Tensor& a, double p) {
  unary_apply_into(out, a, [p](double x) { return std::pow(x, p); });
}
void step_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().step);
}
void relu_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().relu);
}
void abs_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().abs);
}
void sign_into(Tensor& out, const Tensor& a) {
  unary_simd_into(out, a, simd::active().sign);
}

void fill_zero(Tensor& out) {
  QPINN_KERNEL_VALIDATE(out, "kernels.fill_zero");
  std::fill(out.data(), out.data() + out.numel(), 0.0);
}

namespace {

// Shared shape check for the fused bias+activation kernels.
void check_bias_shape(const Tensor& a, const Tensor& bias, const char* name) {
  QPINN_KERNEL_VALIDATE(a, "kernels.bias_activation");
  QPINN_KERNEL_VALIDATE(bias, "kernels.bias_activation");
  QPINN_CHECK_SHAPE(a.rank() == 2, std::string(name) +
                                       " requires a rank-2 input, got " +
                                       shape_to_string(a.shape()));
  const bool row_vector =
      (bias.rank() == 1 && bias.numel() == a.cols()) ||
      (bias.rank() == 2 && bias.rows() == 1 && bias.cols() == a.cols());
  QPINN_CHECK_SHAPE(row_vector, std::string(name) + " bias " +
                                    shape_to_string(bias.shape()) +
                                    " does not match columns of " +
                                    shape_to_string(a.shape()));
}

// Scalar sweep for fused bias+activation kernels whose transcendental has
// no vectorized table entry (bias_sin); the win is one pass (and one tape
// node) instead of broadcast-add followed by a unary.
template <typename F>
void bias_activation_into(Tensor& out, const Tensor& a, const Tensor& bias,
                          const char* name, F f) {
  check_bias_shape(a, bias, name);
  QPINN_KERNEL_VALIDATE(out, "kernels.bias_activation");
  QPINN_CHECK_SHAPE(out.same_shape(a),
                    std::string(name) + " output shape mismatch");
  const double* pa = a.data();
  const double* pb = bias.data();
  double* po = out.data();
  const std::size_t rows = static_cast<std::size_t>(a.rows());
  const std::size_t cols = static_cast<std::size_t>(a.cols());
  parallel_for(
      rows,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const double* row_a = pa + r * cols;
          double* row_o = po + r * cols;
          for (std::size_t c = 0; c < cols; ++c) {
            row_o[c] = f(row_a[c] + pb[c]);
          }
        }
      },
      /*grain=*/16);
}

}  // namespace

void bias_tanh_into(Tensor& out, const Tensor& a, const Tensor& bias) {
  check_bias_shape(a, bias, "bias_tanh");
  QPINN_KERNEL_VALIDATE(out, "kernels.bias_activation");
  QPINN_CHECK_SHAPE(out.same_shape(a), "bias_tanh output shape mismatch");
  const double* pa = a.data();
  const double* pb = bias.data();
  double* po = out.data();
  const std::size_t rows = static_cast<std::size_t>(a.rows());
  const std::size_t cols = static_cast<std::size_t>(a.cols());
  auto* fn = simd::active().bias_tanh;
  parallel_for(
      rows,
      [&](std::size_t begin, std::size_t end) {
        fn(pa + begin * cols, pb, po + begin * cols, end - begin, cols);
      },
      /*grain=*/16);
}

Tensor bias_tanh(const Tensor& a, const Tensor& bias) {
  Tensor out = Tensor::uninitialized(a.shape());
  bias_tanh_into(out, a, bias);
  return out;
}

void bias_sin_into(Tensor& out, const Tensor& a, const Tensor& bias) {
  bias_activation_into(out, a, bias, "bias_sin",
                       [](double x) { return std::sin(x); });
}

Tensor bias_sin(const Tensor& a, const Tensor& bias) {
  Tensor out = Tensor::uninitialized(a.shape());
  bias_sin_into(out, a, bias);
  return out;
}

void tanh_grad_into(Tensor& out, const Tensor& g, const Tensor& t) {
  QPINN_KERNEL_VALIDATE(g, "kernels.tanh_grad");
  QPINN_KERNEL_VALIDATE(t, "kernels.tanh_grad");
  QPINN_KERNEL_VALIDATE(out, "kernels.tanh_grad");
  QPINN_CHECK_SHAPE(g.same_shape(t), "tanh_grad operand shape mismatch");
  QPINN_CHECK_SHAPE(out.same_shape(g), "tanh_grad output shape mismatch");
  const double* pg = g.data();
  const double* pt = t.data();
  double* po = out.data();
  const std::size_t n = static_cast<std::size_t>(g.numel());
  auto* fn = simd::active().tanh_grad;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(pg + begin, pt + begin, po + begin, end - begin);
  });
}

Tensor tanh_grad(const Tensor& g, const Tensor& t) {
  Tensor out = Tensor::uninitialized(g.shape());
  tanh_grad_into(out, g, t);
  return out;
}

namespace {

double square_sum_total(const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.square_sum_all");
  const double* p = a.data();
  const std::size_t n = static_cast<std::size_t>(a.numel());
  auto* fn = simd::active().square_sum;
  return parallel_reduce<double>(
      n, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        return acc + fn(p + begin, end - begin);
      },
      [](double x, double y) { return x + y; });
}

double weighted_square_sum_total(const Tensor& w, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(w, "kernels.weighted_square_sum_all");
  QPINN_KERNEL_VALIDATE(a, "kernels.weighted_square_sum_all");
  const double* pw = w.data();
  const double* pa = a.data();
  if (w.same_shape(a)) {
    const std::size_t n = static_cast<std::size_t>(a.numel());
    auto* fn = simd::active().weighted_square_sum;
    return parallel_reduce<double>(
        n, 0.0,
        [&](std::size_t begin, std::size_t end, double acc) {
          return acc + fn(pw + begin, pa + begin, end - begin);
        },
        [](double x, double y) { return x + y; });
  }
  // Per-row weights against a rank-2 residual: w broadcast along columns.
  const bool col_vector =
      a.rank() == 2 &&
      ((w.rank() == 1 && w.numel() == a.rows()) ||
       (w.rank() == 2 && w.rows() == a.rows() && w.cols() == 1));
  QPINN_CHECK_SHAPE(col_vector, "weighted_square_sum_all weights " +
                                    shape_to_string(w.shape()) +
                                    " do not match " +
                                    shape_to_string(a.shape()));
  const std::size_t rows = static_cast<std::size_t>(a.rows());
  const std::size_t cols = static_cast<std::size_t>(a.cols());
  auto* fn = simd::active().square_sum;
  return parallel_reduce<double>(
      rows, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        for (std::size_t r = begin; r < end; ++r) {
          acc += pw[r] * fn(pa + r * cols, cols);
        }
        return acc;
      },
      [](double x, double y) { return x + y; },
      /*grain=*/16);
}

}  // namespace

Tensor square_sum_all(const Tensor& a) {
  return Tensor::scalar(square_sum_total(a));
}

void square_sum_all_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.square_sum_all");
  QPINN_CHECK_SHAPE(out.numel() == 1, "square_sum_all output must be scalar");
  out.data()[0] = square_sum_total(a);
}

Tensor weighted_square_sum_all(const Tensor& w, const Tensor& a) {
  return Tensor::scalar(weighted_square_sum_total(w, a));
}

void weighted_square_sum_all_into(Tensor& out, const Tensor& w,
                                  const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.weighted_square_sum_all");
  QPINN_CHECK_SHAPE(out.numel() == 1,
                    "weighted_square_sum_all output must be scalar");
  out.data()[0] = weighted_square_sum_total(w, a);
}

namespace {

// ---- matmul dispatch ------------------------------------------------------
//
// The register-blocked micro-kernels live in tensor/simd.hpp and are
// selected per-ISA through the kernel table. They write every output
// element; each one's accumulation order depends only on the variant and
// on where its chunk starts (see the matmul rule in simd.hpp), so the
// chunking below is part of the bit-identity contract.
// No operand value is ever skipped — an earlier `aik == 0.0` shortcut
// silently dropped IEEE NaN/Inf propagation (0 * NaN must be NaN).

// Serial-dispatch heuristic: run on the calling thread unless a chunk of at
// least kMinRowsPerChunk rows carries ~kSerialFlops of multiply-adds.
// The floor keeps tiny matmuls (few output rows) off the pool entirely —
// per-task dispatch costs more than the work itself.
constexpr std::int64_t kMinRowsPerChunk = 4;
constexpr std::int64_t kSerialFlops = 16384;

std::size_t matmul_grain(std::int64_t flops_per_row) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      kMinRowsPerChunk,
      kSerialFlops / std::max<std::int64_t>(1, flops_per_row)));
}

}  // namespace

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  QPINN_KERNEL_VALIDATE(a, "kernels.matmul");
  QPINN_KERNEL_VALIDATE(b, "kernels.matmul");
  QPINN_KERNEL_VALIDATE(out, "kernels.matmul");
  QPINN_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2,
                    "matmul requires rank-2 operands, got " +
                        shape_to_string(a.shape()) + " x " +
                        shape_to_string(b.shape()));
  QPINN_CHECK_SHAPE(a.cols() == b.rows(),
                    "matmul inner dimensions mismatch: " +
                        shape_to_string(a.shape()) + " x " +
                        shape_to_string(b.shape()));
  const std::int64_t n = a.rows(), k = a.cols(), m = b.cols();
  QPINN_CHECK_SHAPE(out.rank() == 2 && out.rows() == n && out.cols() == m,
                    "matmul output shape mismatch");
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  auto* fn = simd::active().matmul_rows;
  parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        fn(pa, pb, po, static_cast<std::int64_t>(begin),
           static_cast<std::int64_t>(end), k, m);
      },
      matmul_grain(k * m));
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  QPINN_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2,
                    "matmul requires rank-2 operands, got " +
                        shape_to_string(a.shape()) + " x " +
                        shape_to_string(b.shape()));
  Tensor out = Tensor::uninitialized(Shape{a.rows(), b.cols()});
  matmul_into(out, a, b);
  return out;
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b) {
  QPINN_KERNEL_VALIDATE(a, "kernels.matmul_tn");
  QPINN_KERNEL_VALIDATE(b, "kernels.matmul_tn");
  QPINN_KERNEL_VALIDATE(out, "kernels.matmul_tn");
  QPINN_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2,
                    "matmul_tn requires rank-2 operands");
  QPINN_CHECK_SHAPE(a.rows() == b.rows(),
                    "matmul_tn dimension mismatch: " +
                        shape_to_string(a.shape()) + "^T x " +
                        shape_to_string(b.shape()));
  const std::int64_t k = a.rows(), n = a.cols(), m = b.cols();
  QPINN_CHECK_SHAPE(out.rank() == 2 && out.rows() == n && out.cols() == m,
                    "matmul_tn output shape mismatch");
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  // out[i][j] = sum_kk a[kk][i] * b[kk][j]; parallelized over output rows i
  // with matmul_into's grain, so it equals matmul(transpose(a), b) bitwise.
  auto* fn = simd::active().matmul_tn_rows;
  parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        fn(pa, pb, po, static_cast<std::int64_t>(begin),
           static_cast<std::int64_t>(end), k, n, m);
      },
      matmul_grain(k * m));
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  QPINN_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2,
                    "matmul_tn requires rank-2 operands");
  Tensor out = Tensor::uninitialized(Shape{a.cols(), b.cols()});
  matmul_tn_into(out, a, b);
  return out;
}

void transpose_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.transpose");
  QPINN_KERNEL_VALIDATE(out, "kernels.transpose");
  QPINN_CHECK_SHAPE(a.rank() == 2, "transpose requires a rank-2 tensor");
  const std::int64_t n = a.rows(), m = a.cols();
  QPINN_CHECK_SHAPE(out.rank() == 2 && out.rows() == m && out.cols() == n,
                    "transpose output shape mismatch");
  const double* pa = a.data();
  double* po = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) po[j * n + i] = pa[i * m + j];
  }
}

Tensor transpose(const Tensor& a) {
  QPINN_CHECK_SHAPE(a.rank() == 2, "transpose requires a rank-2 tensor");
  Tensor out = Tensor::uninitialized(Shape{a.cols(), a.rows()});
  transpose_into(out, a);
  return out;
}

namespace {

double sum_total(const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.sum_all");
  const double* p = a.data();
  const std::size_t n = static_cast<std::size_t>(a.numel());
  auto* fn = simd::active().sum;
  return parallel_reduce<double>(
      n, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        return acc + fn(p + begin, end - begin);
      },
      [](double x, double y) { return x + y; });
}

}  // namespace

Tensor sum_all(const Tensor& a) { return Tensor::scalar(sum_total(a)); }

void sum_all_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.sum_all");
  QPINN_CHECK_SHAPE(out.numel() == 1, "sum_all output must be scalar");
  out.data()[0] = sum_total(a);
}

Tensor mean_all(const Tensor& a) {
  return scale(sum_all(a), 1.0 / static_cast<double>(a.numel()));
}

void mean_all_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(out, "kernels.mean_all");
  QPINN_CHECK_SHAPE(out.numel() == 1, "mean_all output must be scalar");
  // Same expression order as mean_all (scale computes s * total).
  out.data()[0] = (1.0 / static_cast<double>(a.numel())) * sum_total(a);
}

Tensor sum_to(const Tensor& a, const Shape& target) {
  QPINN_KERNEL_VALIDATE(a, "kernels.sum_to");
  // Shapes equal: still a fresh buffer. Returning `a` itself would alias
  // the caller's storage on exactly one path while every other path
  // allocates — and an in-place mutation through the "result" (e.g. the
  // backward pass accumulating gradients) would silently corrupt the
  // source tensor.
  if (a.shape() == target) return a.clone();
  Tensor out(target);
  sum_to_into(out, a);
  return out;
}

void sum_to_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.sum_to");
  QPINN_KERNEL_VALIDATE(out, "kernels.sum_to");
  const Shape& target = out.shape();
  if (a.shape() == target) {
    copy_into(out, a);
    return;
  }
  QPINN_CHECK_SHAPE(broadcastable_to(target, a.shape()),
                    "sum_to target " + shape_to_string(target) +
                        " is not broadcast-compatible with " +
                        shape_to_string(a.shape()));
  const std::size_t rank = a.shape().size();
  const auto sa = row_major_strides(a.shape());
  const auto st = broadcast_strides(target, rank);
  const double* pa = a.data();
  double* po = out.data();
  const std::int64_t n = a.numel();

  // Fast path: rank-2 input collapsing rows into a row vector ({1, m} or
  // {m}) — the bias-gradient pattern, dominant in backward passes. Chunked
  // partial rows combine in fixed chunk order, so the result is
  // deterministic regardless of thread count.
  const bool row_target =
      a.rank() == 2 &&
      ((target.size() == 1 && target[0] == a.cols()) ||
       (target.size() == 2 && target[0] == 1 && target[1] == a.cols()));
  if (row_target) {
    const std::size_t rows = static_cast<std::size_t>(a.rows());
    const std::size_t cols = static_cast<std::size_t>(a.cols());
    auto* fn = simd::active().acc_add;
    std::vector<double> total = parallel_reduce<std::vector<double>>(
        rows, std::vector<double>(cols, 0.0),
        [&](std::size_t begin, std::size_t end, std::vector<double> acc) {
          for (std::size_t r = begin; r < end; ++r) {
            fn(acc.data(), pa + r * cols, cols);
          }
          return acc;
        },
        [](std::vector<double> x, const std::vector<double>& y) {
          for (std::size_t c = 0; c < x.size(); ++c) x[c] += y[c];
          return x;
        },
        /*grain=*/64);
    std::copy(total.begin(), total.end(), po);
    return;
  }

  // General case: serial accumulation — outputs may collide across input
  // elements, so the (possibly dirty) output is zeroed first.
  std::fill(po, po + out.numel(), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t rem = i;
    std::int64_t it = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      const std::int64_t coord = rem / sa[d];
      rem -= coord * sa[d];
      it += coord * st[d];
    }
    po[it] += pa[i];
  }
}

Tensor broadcast_to(const Tensor& a, const Shape& target) {
  QPINN_KERNEL_VALIDATE(a, "kernels.broadcast_to");
  // Fresh storage on the shapes-equal path too; see sum_to.
  if (a.shape() == target) return a.clone();
  Tensor out = Tensor::uninitialized(target);
  broadcast_to_into(out, a);
  return out;
}

void broadcast_to_into(Tensor& out, const Tensor& a) {
  QPINN_KERNEL_VALIDATE(a, "kernels.broadcast_to");
  QPINN_KERNEL_VALIDATE(out, "kernels.broadcast_to");
  const Shape& target = out.shape();
  if (a.shape() == target) {
    copy_into(out, a);
    return;
  }
  QPINN_CHECK_SHAPE(broadcastable_to(a.shape(), target),
                    "cannot broadcast " + shape_to_string(a.shape()) + " to " +
                        shape_to_string(target));
  const std::size_t rank = target.size();
  const auto sa = broadcast_strides(a.shape(), rank);
  const auto so = row_major_strides(target);
  const double* pa = a.data();
  double* po = out.data();
  const std::size_t n = static_cast<std::size_t>(out.numel());
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::int64_t rem = static_cast<std::int64_t>(i);
      std::int64_t ia = 0;
      for (std::size_t d = 0; d < rank; ++d) {
        const std::int64_t coord = rem / so[d];
        rem -= coord * so[d];
        ia += coord * sa[d];
      }
      po[i] = pa[ia];
    }
  });
}

void concat_cols_into(Tensor& out, const std::vector<Tensor>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_cols needs at least one tensor");
  QPINN_KERNEL_VALIDATE(out, "kernels.concat_cols");
  const std::int64_t rows = parts.front().rows();
  std::int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    QPINN_CHECK_SHAPE(p.rank() == 2 && p.rows() == rows,
                      "concat_cols requires rank-2 tensors with equal rows");
    total_cols += p.cols();
  }
  QPINN_CHECK_SHAPE(out.rank() == 2 && out.rows() == rows &&
                        out.cols() == total_cols,
                    "concat_cols output shape mismatch");
  double* po = out.data();
  std::int64_t col_offset = 0;
  for (const Tensor& p : parts) {
    const double* pp = p.data();
    const std::int64_t pc = p.cols();
    for (std::int64_t r = 0; r < rows; ++r) {
      std::copy(pp + r * pc, pp + (r + 1) * pc,
                po + r * total_cols + col_offset);
    }
    col_offset += pc;
  }
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_cols needs at least one tensor");
  std::int64_t total_cols = 0;
  for (const Tensor& p : parts) total_cols += p.cols();
  Tensor out = Tensor::uninitialized(Shape{parts.front().rows(), total_cols});
  concat_cols_into(out, parts);
  return out;
}

Tensor slice_cols(const Tensor& a, std::int64_t c0, std::int64_t c1) {
  QPINN_KERNEL_VALIDATE(a, "kernels.slice_cols");
  QPINN_CHECK_SHAPE(a.rank() == 2, "slice_cols requires a rank-2 tensor");
  QPINN_CHECK_SHAPE(0 <= c0 && c0 < c1 && c1 <= a.cols(),
                    "slice_cols range [" + std::to_string(c0) + ", " +
                        std::to_string(c1) + ") invalid for " +
                        shape_to_string(a.shape()));
  Tensor out = Tensor::uninitialized(Shape{a.rows(), c1 - c0});
  slice_cols_into(out, a, c0, c1);
  return out;
}

void slice_cols_into(Tensor& out, const Tensor& a, std::int64_t c0,
                     std::int64_t c1) {
  QPINN_KERNEL_VALIDATE(a, "kernels.slice_cols");
  QPINN_KERNEL_VALIDATE(out, "kernels.slice_cols");
  QPINN_CHECK_SHAPE(a.rank() == 2, "slice_cols requires a rank-2 tensor");
  QPINN_CHECK_SHAPE(0 <= c0 && c0 < c1 && c1 <= a.cols(),
                    "slice_cols range invalid");
  const std::int64_t rows = a.rows(), cols = a.cols(), width = c1 - c0;
  QPINN_CHECK_SHAPE(out.rank() == 2 && out.rows() == rows &&
                        out.cols() == width,
                    "slice_cols output shape mismatch");
  const double* pa = a.data();
  double* po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy(pa + r * cols + c0, pa + r * cols + c1, po + r * width);
  }
}

Tensor slice_rows(const Tensor& a, std::int64_t r0, std::int64_t r1) {
  QPINN_KERNEL_VALIDATE(a, "kernels.slice_rows");
  QPINN_CHECK_SHAPE(a.rank() == 2, "slice_rows requires a rank-2 tensor");
  QPINN_CHECK_SHAPE(0 <= r0 && r0 < r1 && r1 <= a.rows(),
                    "slice_rows range [" + std::to_string(r0) + ", " +
                        std::to_string(r1) + ") invalid for " +
                        shape_to_string(a.shape()));
  Tensor out = Tensor::uninitialized(Shape{r1 - r0, a.cols()});
  slice_rows_into(out, a, r0, r1);
  return out;
}

void slice_rows_into(Tensor& out, const Tensor& a, std::int64_t r0,
                     std::int64_t r1) {
  QPINN_KERNEL_VALIDATE(a, "kernels.slice_rows");
  QPINN_KERNEL_VALIDATE(out, "kernels.slice_rows");
  QPINN_CHECK_SHAPE(a.rank() == 2, "slice_rows requires a rank-2 tensor");
  QPINN_CHECK_SHAPE(0 <= r0 && r0 < r1 && r1 <= a.rows(),
                    "slice_rows range invalid");
  const std::int64_t cols = a.cols();
  QPINN_CHECK_SHAPE(out.rank() == 2 && out.rows() == r1 - r0 &&
                        out.cols() == cols,
                    "slice_rows output shape mismatch");
  std::copy(a.data() + r0 * cols, a.data() + r1 * cols, out.data());
}

void concat_rows_into(Tensor& out, const std::vector<Tensor>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_rows needs at least one tensor");
  QPINN_KERNEL_VALIDATE(out, "kernels.concat_rows");
  const std::int64_t cols = parts.front().cols();
  std::int64_t total_rows = 0;
  for (const Tensor& p : parts) {
    QPINN_CHECK_SHAPE(p.rank() == 2 && p.cols() == cols,
                      "concat_rows requires rank-2 tensors with equal cols");
    total_rows += p.rows();
  }
  QPINN_CHECK_SHAPE(out.rank() == 2 && out.rows() == total_rows &&
                        out.cols() == cols,
                    "concat_rows output shape mismatch");
  double* po = out.data();
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.numel(), po);
    po += p.numel();
  }
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_rows needs at least one tensor");
  std::int64_t total_rows = 0;
  for (const Tensor& p : parts) total_rows += p.rows();
  Tensor out = Tensor::uninitialized(Shape{total_rows, parts.front().cols()});
  concat_rows_into(out, parts);
  return out;
}

void axpy_inplace(Tensor& dst, double s, const Tensor& src) {
  QPINN_KERNEL_VALIDATE(dst, "kernels.axpy_inplace");
  QPINN_KERNEL_VALIDATE(src, "kernels.axpy_inplace");
  QPINN_CHECK_SHAPE(dst.same_shape(src), "axpy_inplace shape mismatch");
  double* pd = dst.data();
  const double* ps = src.data();
  const std::size_t n = static_cast<std::size_t>(dst.numel());
  auto* fn = simd::active().axpy;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(pd + begin, s, ps + begin, end - begin);
  });
}

void scale_inplace(Tensor& dst, double s) {
  QPINN_KERNEL_VALIDATE(dst, "kernels.scale_inplace");
  double* pd = dst.data();
  const std::size_t n = static_cast<std::size_t>(dst.numel());
  auto* fn = simd::active().scale_inplace;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(pd + begin, s, end - begin);
  });
}

void copy_into(Tensor& dst, const Tensor& src) {
  QPINN_KERNEL_VALIDATE(dst, "kernels.copy_into");
  QPINN_KERNEL_VALIDATE(src, "kernels.copy_into");
  QPINN_CHECK_SHAPE(dst.same_shape(src), "copy_into shape mismatch");
  std::copy(src.data(), src.data() + src.numel(), dst.data());
}

void adam_step_inplace(Tensor& param, const Tensor& grad, Tensor& m,
                       Tensor& v, const AdamStepConfig& cfg) {
  QPINN_KERNEL_VALIDATE(param, "kernels.adam_step_inplace");
  QPINN_KERNEL_VALIDATE(grad, "kernels.adam_step_inplace");
  QPINN_KERNEL_VALIDATE(m, "kernels.adam_step_inplace");
  QPINN_KERNEL_VALIDATE(v, "kernels.adam_step_inplace");
  QPINN_CHECK_SHAPE(param.same_shape(grad) && param.same_shape(m) &&
                        param.same_shape(v),
                    "adam_step_inplace shape mismatch");
  simd::AdamParams sp;
  sp.lr = cfg.lr;
  sp.beta1 = cfg.beta1;
  sp.beta2 = cfg.beta2;
  sp.eps = cfg.eps;
  sp.weight_decay = cfg.weight_decay;
  sp.bias_corr1 = cfg.bias_corr1;
  sp.bias_corr2 = cfg.bias_corr2;
  sp.decoupled = cfg.decoupled;
  double* pp = param.data();
  const double* pg = grad.data();
  double* pm = m.data();
  double* pv = v.data();
  const std::size_t n = static_cast<std::size_t>(param.numel());
  auto* fn = simd::active().adam;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(pp + begin, pg + begin, pm + begin, pv + begin, end - begin, sp);
  });
}

double dot(const Tensor& a, const Tensor& b) {
  QPINN_KERNEL_VALIDATE(a, "kernels.dot");
  QPINN_KERNEL_VALIDATE(b, "kernels.dot");
  QPINN_CHECK_SHAPE(a.same_shape(b), "dot shape mismatch");
  const double* pa = a.data();
  const double* pb = b.data();
  const std::size_t n = static_cast<std::size_t>(a.numel());
  auto* fn = simd::active().dot;
  // parallel_reduce combines per-chunk partials in fixed chunk order, so
  // the rounding is deterministic across runs for a given thread count.
  return parallel_reduce<double>(
      n, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        return acc + fn(pa + begin, pb + begin, end - begin);
      },
      [](double x, double y) { return x + y; });
}

double norm2(const Tensor& a) { return std::sqrt(dot(a, a)); }

}  // namespace qpinn::kernels
