#include "tensor/kernels_f32.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/parallel_for.hpp"

namespace qpinn::kernels_f32 {

namespace {

// Same chunking policy as the fp64 paths in kernels.cpp: table kernels
// are handed contiguous chunks by parallel_for with the default grain;
// row kernels use grain 64 (bin_row) / 16 (fused activations); matmul
// rows use the flops-derived grain below.
constexpr std::int64_t kMinRowsPerChunk = 4;
constexpr std::int64_t kSerialFlops = 16384;

std::size_t matmul_grain(std::int64_t flops_per_row) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      kMinRowsPerChunk,
      kSerialFlops / std::max<std::int64_t>(1, flops_per_row)));
}

template <typename ChunkFn>
void unary_table(const float* a, float* o, std::size_t n, ChunkFn fn) {
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(a + begin, o + begin, end - begin);
  });
}

template <typename ScalarFn>
void unary_scalar(const float* a, float* o, std::size_t n, ScalarFn f) {
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) o[i] = f(a[i]);
  });
}

}  // namespace

void downcast(float* dst, const double* src, std::size_t n) {
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      dst[i] = static_cast<float>(src[i]);
    }
  });
}

void upcast(double* dst, const float* src, std::size_t n) {
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      dst[i] = static_cast<double>(src[i]);
    }
  });
}

void bin_same(simd::BinOp op, const float* a, const float* b, float* o,
              std::size_t n) {
  auto* fn = simd::active_f32().bin_same[op];
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(a + begin, b + begin, o + begin, end - begin);
  });
}

void bin_row(simd::BinOp op, const float* a, const float* b, float* o,
             std::size_t rows, std::size_t cols) {
  auto* fn = simd::active_f32().bin_row[op];
  parallel_for(
      rows,
      [&](std::size_t begin, std::size_t end) {
        fn(a + begin * cols, b, o + begin * cols, end - begin, cols);
      },
      64);
}

void bin_scalar_rhs(simd::BinOp op, const float* a, double s, float* o,
                    std::size_t n) {
  const auto& t = simd::active_f32();
  switch (op) {
    case simd::kAdd:
      unary_table(a, o, n, [&](const float* p, float* q, std::size_t c) {
        t.add_scalar(p, s, q, c);
      });
      break;
    case simd::kSub:
      unary_table(a, o, n, [&](const float* p, float* q, std::size_t c) {
        t.add_scalar(p, -s, q, c);
      });
      break;
    case simd::kMul:
      unary_table(a, o, n, [&](const float* p, float* q, std::size_t c) {
        t.scale(p, s, q, c);
      });
      break;
    case simd::kDiv: {
      // Matches the fp64 scalar-operand path, which divides per element
      // rather than multiplying by a precomputed reciprocal.
      const float sv = static_cast<float>(s);
      unary_scalar(a, o, n, [sv](float x) { return x / sv; });
      break;
    }
    default:
      break;
  }
}

void bin_scalar_lhs(simd::BinOp op, double s, const float* b, float* o,
                    std::size_t n) {
  const float sv = static_cast<float>(s);
  switch (op) {
    case simd::kAdd:
      unary_scalar(b, o, n, [sv](float x) { return sv + x; });
      break;
    case simd::kSub:
      unary_scalar(b, o, n, [sv](float x) { return sv - x; });
      break;
    case simd::kMul:
      unary_scalar(b, o, n, [sv](float x) { return sv * x; });
      break;
    case simd::kDiv:
      unary_scalar(b, o, n, [sv](float x) { return sv / x; });
      break;
    default:
      break;
  }
}

void neg(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().neg);
}
void square(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().square);
}
void sqrt(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().sqrt);
}
void reciprocal(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().reciprocal);
}
void relu(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().relu);
}
void abs(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().abs);
}
void step(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().step);
}
void sign(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().sign);
}
void tanh(const float* a, float* o, std::size_t n) {
  unary_table(a, o, n, simd::active_f32().tanh);
}

void exp(const float* a, float* o, std::size_t n) {
  unary_scalar(a, o, n, [](float x) { return std::exp(x); });
}
void log(const float* a, float* o, std::size_t n) {
  unary_scalar(a, o, n, [](float x) { return std::log(x); });
}
void sin(const float* a, float* o, std::size_t n) {
  unary_scalar(a, o, n, [](float x) { return std::sin(x); });
}
void cos(const float* a, float* o, std::size_t n) {
  unary_scalar(a, o, n, [](float x) { return std::cos(x); });
}
void sigmoid(const float* a, float* o, std::size_t n) {
  unary_scalar(a, o, n, [](float x) { return 1.0F / (1.0F + std::exp(-x)); });
}
void softplus(const float* a, float* o, std::size_t n) {
  unary_scalar(a, o, n, [](float x) {
    return x > 0.0F ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
  });
}

void scale(const float* a, double s, float* o, std::size_t n) {
  auto* fn = simd::active_f32().scale;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(a + begin, s, o + begin, end - begin);
  });
}

void add_scalar(const float* a, double s, float* o, std::size_t n) {
  auto* fn = simd::active_f32().add_scalar;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(a + begin, s, o + begin, end - begin);
  });
}

void pow_scalar(const float* a, double p, float* o, std::size_t n) {
  const float pv = static_cast<float>(p);
  unary_scalar(a, o, n, [pv](float x) { return std::pow(x, pv); });
}

void bias_tanh(const float* a, const float* b, float* o, std::size_t rows,
               std::size_t cols) {
  auto* fn = simd::active_f32().bias_tanh;
  parallel_for(
      rows,
      [&](std::size_t begin, std::size_t end) {
        fn(a + begin * cols, b, o + begin * cols, end - begin, cols);
      },
      16);
}

void bias_sin(const float* a, const float* b, float* o, std::size_t rows,
              std::size_t cols) {
  parallel_for(
      rows,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const float* pa = a + r * cols;
          float* po = o + r * cols;
          for (std::size_t c = 0; c < cols; ++c) {
            po[c] = std::sin(pa[c] + b[c]);
          }
        }
      },
      16);
}

void tanh_grad(const float* g, const float* t, float* o, std::size_t n) {
  auto* fn = simd::active_f32().tanh_grad;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(g + begin, t + begin, o + begin, end - begin);
  });
}

void copy(float* dst, const float* src, std::size_t n) {
  std::copy(src, src + n, dst);
}

void fill_zero(float* o, std::size_t n) { std::fill(o, o + n, 0.0F); }

void fill_value(float* o, double v, std::size_t n) {
  std::fill(o, o + n, static_cast<float>(v));
}

void axpy(float* dst, double s, const float* src, std::size_t n) {
  auto* fn = simd::active_f32().axpy;
  parallel_for(n, [&](std::size_t begin, std::size_t end) {
    fn(dst + begin, s, src + begin, end - begin);
  });
}

void transpose(const float* a, float* o, std::int64_t n, std::int64_t m) {
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) o[j * n + i] = a[i * m + j];
  }
}

void sum_to_rows(const float* a, float* o, std::size_t rows,
                 std::size_t cols) {
  auto* fn = simd::active_f32().acc_add;
  std::fill(o, o + cols, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) fn(o, a + r * cols, cols);
}

void matmul(const float* a, const float* b, float* o, std::int64_t n,
            std::int64_t k, std::int64_t m) {
  auto* fn = simd::active_f32().matmul_rows;
  parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        fn(a, b, o, static_cast<std::int64_t>(begin),
           static_cast<std::int64_t>(end), k, m);
      },
      matmul_grain(k * m));
}

void matmul_tn(const float* a, const float* b, float* o, std::int64_t n,
               std::int64_t k, std::int64_t m) {
  auto* fn = simd::active_f32().matmul_tn_rows;
  parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t begin, std::size_t end) {
        fn(a, b, o, static_cast<std::int64_t>(begin),
           static_cast<std::int64_t>(end), k, n, m);
      },
      matmul_grain(k * m));
}

double sum(const float* a, std::size_t n) {
  auto* fn = simd::active_f32().sum;
  return parallel_reduce<double>(
      n, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        return acc + fn(a + begin, end - begin);
      },
      [](double x, double y) { return x + y; });
}

double square_sum(const float* a, std::size_t n) {
  auto* fn = simd::active_f32().square_sum;
  return parallel_reduce<double>(
      n, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        return acc + fn(a + begin, end - begin);
      },
      [](double x, double y) { return x + y; });
}

double weighted_square_sum(const float* w, const float* a, std::size_t n) {
  auto* fn = simd::active_f32().weighted_square_sum;
  return parallel_reduce<double>(
      n, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        return acc + fn(w + begin, a + begin, end - begin);
      },
      [](double x, double y) { return x + y; });
}

double weighted_square_sum_rows(const float* w, const float* a,
                                std::size_t rows, std::size_t cols) {
  auto* fn = simd::active_f32().square_sum;
  return parallel_reduce<double>(
      rows, 0.0,
      [&](std::size_t begin, std::size_t end, double acc) {
        for (std::size_t r = begin; r < end; ++r) {
          acc += static_cast<double>(w[r]) * fn(a + r * cols, cols);
        }
        return acc;
      },
      [](double x, double y) { return x + y; },
      16);
}

}  // namespace qpinn::kernels_f32
