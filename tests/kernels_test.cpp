#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qpinn::kernels {
namespace {

Tensor random(Shape shape, std::uint64_t seed, double lo = -2.0,
              double hi = 2.0) {
  Rng rng(seed);
  return Tensor::rand(std::move(shape), rng, lo, hi);
}

// ---- binary elementwise with broadcasting -----------------------------------

struct BroadcastCase {
  Shape a, b, expected;
};

class BroadcastP : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastP, AddMatchesManualIndexing) {
  const auto& param = GetParam();
  const Tensor a = random(param.a, 1);
  const Tensor b = random(param.b, 2);
  const Tensor c = add(a, b);
  ASSERT_EQ(c.shape(), param.expected);
  // Verify a few representative entries via explicit index math.
  const auto sa = row_major_strides(param.a);
  const auto sb = row_major_strides(param.b);
  const auto sc = row_major_strides(param.expected);
  const std::size_t rank = param.expected.size();
  for (std::int64_t flat = 0; flat < c.numel(); ++flat) {
    std::int64_t rem = flat, ia = 0, ib = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      const std::int64_t coord = rem / sc[d];
      rem -= coord * sc[d];
      const std::size_t off_a = rank - param.a.size();
      const std::size_t off_b = rank - param.b.size();
      if (d >= off_a && param.a[d - off_a] != 1) ia += coord * sa[d - off_a];
      if (d >= off_b && param.b[d - off_b] != 1) ib += coord * sb[d - off_b];
    }
    ASSERT_DOUBLE_EQ(c[flat], a[ia] + b[ib]) << "flat " << flat;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastP,
    ::testing::Values(BroadcastCase{{3, 4}, {3, 4}, {3, 4}},
                      BroadcastCase{{3, 4}, {1, 4}, {3, 4}},
                      BroadcastCase{{3, 4}, {4}, {3, 4}},
                      BroadcastCase{{3, 1}, {1, 4}, {3, 4}},
                      BroadcastCase{{3, 4}, {}, {3, 4}},
                      BroadcastCase{{}, {2, 2}, {2, 2}},
                      BroadcastCase{{5}, {3, 5}, {3, 5}},
                      BroadcastCase{{3, 1}, {3, 4}, {3, 4}}));

TEST(Kernels, BinaryOpsValues) {
  const Tensor a = Tensor::from_vector({4.0, 9.0}, {2});
  const Tensor b = Tensor::from_vector({2.0, 3.0}, {2});
  EXPECT_DOUBLE_EQ(sub(a, b)[0], 2.0);
  EXPECT_DOUBLE_EQ(mul(a, b)[1], 27.0);
  EXPECT_DOUBLE_EQ(div(a, b)[0], 2.0);
  EXPECT_THROW(add(Tensor::zeros({2, 3}), Tensor::zeros({2, 4})), ShapeError);
}

// ---- unary elementwise -----------------------------------------------------------

TEST(Kernels, UnaryMatchStd) {
  const Tensor x = random({17}, 3, 0.1, 2.0);
  const Tensor ex = exp(x), lx = log(x), sx = sin(x), cx = cos(x),
               tx = tanh(x), qx = sqrt(x), rx = reciprocal(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_DOUBLE_EQ(ex[i], std::exp(x[i]));
    EXPECT_DOUBLE_EQ(lx[i], std::log(x[i]));
    EXPECT_DOUBLE_EQ(sx[i], std::sin(x[i]));
    EXPECT_DOUBLE_EQ(cx[i], std::cos(x[i]));
    // tanh dispatches to the vectorized polynomial kernel: a few ulp from
    // libm (and bit-identical across SIMD variants), not bit-equal to it.
    EXPECT_NEAR(tx[i], std::tanh(x[i]), 5e-15);
    EXPECT_DOUBLE_EQ(qx[i], std::sqrt(x[i]));
    EXPECT_DOUBLE_EQ(rx[i], 1.0 / x[i]);
  }
}

TEST(Kernels, SigmoidSoftplusStable) {
  const Tensor x = Tensor::from_vector({-700.0, -1.0, 0.0, 1.0, 700.0}, {5});
  const Tensor s = sigmoid(x), sp = softplus(x);
  EXPECT_NEAR(s[0], 0.0, 1e-12);
  EXPECT_NEAR(s[4], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s[2], 0.5);
  EXPECT_TRUE(sp.all_finite());
  EXPECT_NEAR(sp[4], 700.0, 1e-9);
  EXPECT_NEAR(sp[0], 0.0, 1e-12);
}

TEST(Kernels, StepReluAbsSign) {
  const Tensor x = Tensor::from_vector({-2.0, 0.0, 3.0}, {3});
  EXPECT_DOUBLE_EQ(step(x)[0], 0.0);
  EXPECT_DOUBLE_EQ(step(x)[1], 0.0);
  EXPECT_DOUBLE_EQ(step(x)[2], 1.0);
  EXPECT_DOUBLE_EQ(relu(x)[0], 0.0);
  EXPECT_DOUBLE_EQ(relu(x)[2], 3.0);
  EXPECT_DOUBLE_EQ(abs(x)[0], 2.0);
  EXPECT_DOUBLE_EQ(sign(x)[0], -1.0);
  EXPECT_DOUBLE_EQ(sign(x)[1], 0.0);
  EXPECT_DOUBLE_EQ(sign(x)[2], 1.0);
}

TEST(Kernels, ScaleAddScalarPow) {
  const Tensor x = Tensor::from_vector({1.0, 2.0, 3.0}, {3});
  EXPECT_DOUBLE_EQ(scale(x, -2.0)[2], -6.0);
  EXPECT_DOUBLE_EQ(add_scalar(x, 0.5)[0], 1.5);
  EXPECT_DOUBLE_EQ(square(x)[2], 9.0);
  EXPECT_DOUBLE_EQ(pow_scalar(x, 3.0)[1], 8.0);
  EXPECT_DOUBLE_EQ(neg(x)[0], -1.0);
}

// ---- matmul family -------------------------------------------------------------------

TEST(Kernels, MatmulAgainstNaive) {
  const Tensor a = random({7, 5}, 11);
  const Tensor b = random({5, 9}, 12);
  const Tensor c = matmul(a, b);
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 9; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < 5; ++k) acc += a.at(i, k) * b.at(k, j);
      ASSERT_NEAR(c.at(i, j), acc, 1e-12);
    }
  }
}

TEST(Kernels, MatmulVariantsConsistent) {
  const Tensor a = random({6, 4}, 21);
  const Tensor b = random({6, 3}, 22);
  const Tensor tn = matmul_tn(a, b);               // a^T b: (4, 3)
  const Tensor expected = matmul(transpose(a), b);
  ASSERT_EQ(tn.shape(), expected.shape());
  for (std::int64_t i = 0; i < tn.numel(); ++i) {
    ASSERT_EQ(tn[i], expected[i]);  // same kernel rule: exact, not rounding
  }
}

// The tiled kernels change summation order vs the naive triple loop, so
// equality is up to rounding: scale the tolerance by the accumulated
// magnitude rather than using a fixed epsilon.
void expect_matmul_matches_naive(const Tensor& a, const Tensor& b) {
  const Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{a.rows(), b.cols()}));
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0, mag = 0.0;
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
        mag += std::abs(a.at(i, k) * b.at(k, j));
      }
      ASSERT_NEAR(c.at(i, j), acc, 1e-12 * std::max(1.0, mag))
          << "(" << i << ", " << j << ") for " << a.rows() << "x" << a.cols()
          << " * " << b.rows() << "x" << b.cols();
    }
  }
}

TEST(Kernels, TiledMatmulMatchesNaiveOnAwkwardShapes) {
  // Shapes chosen to exercise every fringe of the 4x8 register tiling:
  // single elements, sub-tile rows/cols, prime extents, and sizes just
  // past tile boundaries.
  struct Dims {
    std::int64_t n, k, m;
  };
  const Dims cases[] = {{1, 1, 1},    {2, 7, 2},   {5, 2, 9},
                        {4, 8, 8},    {7, 13, 5},  {17, 31, 29},
                        {33, 17, 9},  {3, 64, 65}, {16, 1, 8}};
  std::uint64_t seed = 100;
  for (const auto& d : cases) {
    const Tensor a = random({d.n, d.k}, seed++);
    const Tensor b = random({d.k, d.m}, seed++);
    expect_matmul_matches_naive(a, b);
  }
}

TEST(Kernels, TiledMatmulVariantsMatchOnAwkwardShapes) {
  const Tensor a = random({13, 7}, 201);
  const Tensor b = random({13, 5}, 202);
  const Tensor tn = matmul_tn(a, b);
  const Tensor tn_ref = matmul(transpose(a), b);
  for (std::int64_t i = 0; i < tn.numel(); ++i) {
    ASSERT_EQ(tn[i], tn_ref[i]);
  }
}

// Regression for the IEEE zero-skip bug: the old inner loops skipped
// `a_ik == 0.0` terms, so a zero row silently swallowed NaN/Inf coming
// from the other operand (0 * NaN must be NaN, and the sum must stay NaN).
TEST(Kernels, MatmulPropagatesNanThroughZeroOperand) {
  const Tensor zero = Tensor::zeros({3, 4});
  Tensor b = random({4, 2}, 301);
  b.at(2, 1) = std::numeric_limits<double>::quiet_NaN();
  const Tensor c = matmul(zero, b);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(std::isnan(c.at(i, 0))) << "clean column poisoned, row " << i;
    EXPECT_TRUE(std::isnan(c.at(i, 1))) << "NaN dropped in row " << i;
  }
}

TEST(Kernels, MatmulPropagatesInfThroughZeroOperand) {
  Tensor a = random({5, 3}, 302);
  a.at(1, 2) = std::numeric_limits<double>::infinity();
  const Tensor zero = Tensor::zeros({3, 6});
  const Tensor c = matmul(a, zero);
  for (std::int64_t j = 0; j < 6; ++j) {
    EXPECT_TRUE(std::isnan(c.at(1, j))) << "Inf * 0 dropped in col " << j;
    EXPECT_FALSE(std::isnan(c.at(0, j)));
  }
}

TEST(Kernels, MatmulTnPropagatesNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Tensor a = Tensor::zeros({4, 3});
  Tensor b = random({4, 2}, 303);
  b.at(3, 0) = nan;
  const Tensor tn = matmul_tn(a, b);  // (3, 2)
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isnan(tn.at(i, 0)));
    EXPECT_FALSE(std::isnan(tn.at(i, 1)));
  }
}

// Regression for the grain heuristic collapsing to 1: a matmul with only
// a couple of rows but a large k*m used to dispatch one pool task per row.
// The rows-per-chunk floor keeps it on the calling thread; the pool's
// dispatch counter must not move.
TEST(Kernels, TinyMatmulRunsSerial) {
  const Tensor a = random({2, 200}, 401);
  const Tensor b = random({200, 100}, 402);  // k*m = 20000 > serial budget
  const std::uint64_t before = global_pool().tasks_submitted();
  const Tensor c = matmul(a, b);
  EXPECT_EQ(global_pool().tasks_submitted(), before);
  ASSERT_EQ(c.shape(), (Shape{2, 100}));
}

TEST(Kernels, LargeMatmulDispatchesWhenWorkersAvailable) {
  // for_each_chunk always runs chunk 0 inline, so dispatch only happens
  // with >= 2 workers; on a single-core pool this degenerates (correctly)
  // to fully serial execution.
  if (global_pool().size() < 2) GTEST_SKIP() << "single-worker pool";
  const Tensor a = random({512, 16}, 403);
  const Tensor b = random({16, 16}, 404);
  const std::uint64_t before = global_pool().tasks_submitted();
  matmul(a, b);
  EXPECT_GT(global_pool().tasks_submitted(), before);
}

TEST(Kernels, MatmulShapeErrors) {
  EXPECT_THROW(matmul(Tensor::zeros({2, 3}), Tensor::zeros({4, 2})),
               ShapeError);
  EXPECT_THROW(matmul(Tensor::zeros({6}), Tensor::zeros({6, 1})), ShapeError);
}

TEST(Kernels, TransposeInvolution) {
  const Tensor a = random({4, 7}, 41);
  const Tensor tt = transpose(transpose(a));
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_DOUBLE_EQ(tt[i], a[i]);
}

// ---- reductions --------------------------------------------------------------------------

TEST(Kernels, SumAndMean) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  EXPECT_DOUBLE_EQ(sum_all(a).item(), 10.0);
  EXPECT_DOUBLE_EQ(mean_all(a).item(), 2.5);
}

TEST(Kernels, SumToCollapsesBroadcastAxes) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  const Tensor rows = sum_to(a, {1, 3});
  EXPECT_DOUBLE_EQ(rows.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(rows.at(0, 2), 9.0);
  const Tensor cols = sum_to(a, {2, 1});
  EXPECT_DOUBLE_EQ(cols.at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(cols.at(1, 0), 15.0);
  const Tensor scalar = sum_to(a, {});
  EXPECT_DOUBLE_EQ(scalar.item(), 21.0);
  EXPECT_THROW(sum_to(a, {3, 3}), ShapeError);
}

TEST(Kernels, BroadcastToMaterializes) {
  const Tensor row = Tensor::from_vector({1, 2, 3}, {1, 3});
  const Tensor big = broadcast_to(row, {4, 3});
  for (std::int64_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(big.at(r, 1), 2.0);
  }
  EXPECT_THROW(broadcast_to(Tensor::zeros({2, 3}), Shape{2, 4}), ShapeError);
}

// Regression for the shapes-equal aliasing bug: sum_to/broadcast_to used
// to return the input tensor itself when no reduction/expansion was
// needed, so "fresh output" callers (autodiff accumulation, in-place
// optimizer updates) silently mutated the source through the alias.
TEST(Kernels, SumToSameShapeReturnsFreshStorage) {
  const Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor s = sum_to(a, {2, 2});
  ASSERT_FALSE(s.shares_storage(a));
  s.data()[0] = 99.0;
  EXPECT_DOUBLE_EQ(a[0], 1.0) << "mutating the result corrupted the source";
  EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(Kernels, BroadcastToSameShapeReturnsFreshStorage) {
  const Tensor a = Tensor::from_vector({5, 6}, {2});
  Tensor b = broadcast_to(a, {2});
  ASSERT_FALSE(b.shares_storage(a));
  b.data()[1] = -1.0;
  EXPECT_DOUBLE_EQ(a[1], 6.0);
  EXPECT_DOUBLE_EQ(b[0], 5.0);
}

TEST(Kernels, SumToBroadcastToAreAdjoint) {
  // <broadcast(x), y> == <x, sum_to(y)> for all x, y — the property the
  // autodiff backward rules rely on.
  const Tensor x = random({1, 4}, 51);
  const Tensor y = random({3, 4}, 52);
  const double lhs = dot(broadcast_to(x, {3, 4}), y);
  const double rhs = dot(x, sum_to(y, {1, 4}));
  EXPECT_NEAR(lhs, rhs, 1e-12);
}

// ---- structural ------------------------------------------------------------------------------

TEST(Kernels, ConcatSliceColsRoundTrip) {
  const Tensor a = random({3, 2}, 61);
  const Tensor b = random({3, 3}, 62);
  const Tensor c = concat_cols({a, b});
  ASSERT_EQ(c.shape(), (Shape{3, 5}));
  const Tensor a2 = slice_cols(c, 0, 2);
  const Tensor b2 = slice_cols(c, 2, 5);
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_DOUBLE_EQ(a2[i], a[i]);
  for (std::int64_t i = 0; i < b.numel(); ++i) ASSERT_DOUBLE_EQ(b2[i], b[i]);
  EXPECT_THROW(slice_cols(c, 2, 2), ShapeError);
  EXPECT_THROW(slice_cols(c, 0, 6), ShapeError);
}

TEST(Kernels, ConcatSliceRowsRoundTrip) {
  const Tensor a = random({2, 4}, 63);
  const Tensor b = random({3, 4}, 64);
  const Tensor c = concat_rows({a, b});
  ASSERT_EQ(c.shape(), (Shape{5, 4}));
  const Tensor b2 = slice_rows(c, 2, 5);
  for (std::int64_t i = 0; i < b.numel(); ++i) ASSERT_DOUBLE_EQ(b2[i], b[i]);
  EXPECT_THROW(concat_rows({a, Tensor::zeros({2, 5})}), ShapeError);
}

// ---- in-place helpers --------------------------------------------------------------------------

TEST(Kernels, InplaceHelpers) {
  Tensor a = Tensor::from_vector({1, 2}, {2});
  const Tensor b = Tensor::from_vector({10, 20}, {2});
  axpy_inplace(a, 0.5, b);
  EXPECT_DOUBLE_EQ(a[0], 6.0);
  scale_inplace(a, 2.0);
  EXPECT_DOUBLE_EQ(a[1], 24.0);
  copy_into(a, b);
  EXPECT_DOUBLE_EQ(a[0], 10.0);
  EXPECT_THROW(copy_into(a, Tensor::zeros({3})), ShapeError);
}

TEST(Kernels, DotAndNorm) {
  const Tensor a = Tensor::from_vector({3, 4}, {2});
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

}  // namespace
}  // namespace qpinn::kernels
