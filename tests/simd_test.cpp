// SIMD dispatch layer: every selectable variant must agree with the scalar
// table. Elementwise, in-place, and Adam kernels are bit-identical by
// contract (same operations in the same order, fringes use the same scalar
// expressions); reductions reassociate and are compared with a tolerance,
// and the matmul kernels are pinned bit for bit to their documented
// per-element accumulation rule. Lengths straddle the vector width (1, w-1,
// w, w+1), a non-multiple mid size, and a large size, on deliberately
// unaligned pointers — the kernels must not assume alignment.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/kernels_f32.hpp"
#include "tensor/simd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "test_guards.hpp"

namespace qpinn::simd {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::size_t> test_lengths(std::size_t width) {
  std::vector<std::size_t> lengths{1, width, width + 1, 255, 65537};
  if (width > 1) lengths.push_back(width - 1);
  return lengths;
}

/// Unaligned views: the vectors get one extra slot and the kernels run on
/// data() + 1, which is misaligned for any register wider than a double.
std::vector<double> filled(std::size_t n, std::uint64_t seed, double lo,
                           double hi) {
  Rng rng(seed);
  std::vector<double> v(n + 1);
  for (double& x : v) x = lo + (hi - lo) * rng.uniform();
  return v;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdDispatch, ActiveTableIsSelectableAndNamed) {
  const std::vector<Isa> isas = available_isas();
  ASSERT_FALSE(isas.empty());
  // The scalar fallback is always selectable and always last (best first).
  EXPECT_EQ(isas.back(), Isa::kScalar);
  bool found = false;
  for (Isa isa : isas) found = found || isa == active_isa();
  EXPECT_TRUE(found) << "active ISA not in available_isas()";
  EXPECT_STREQ(active().name, isa_name(active_isa()));
  EXPECT_GE(active().width, 1u);
}

TEST(SimdDispatch, ParseIsaAcceptsTheDocumentedNames) {
  EXPECT_EQ(parse_isa("off"), Isa::kScalar);
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("SSE2"), Isa::kSse2);
  EXPECT_EQ(parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(parse_isa("neon"), Isa::kNeon);
  EXPECT_THROW(parse_isa("avx512"), ConfigError);
  EXPECT_THROW(parse_isa(""), ConfigError);
}

TEST(SimdDispatch, ForceIsaSwitchesAndRejectsUnavailable) {
  IsaGuard guard;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    EXPECT_EQ(active_isa(), isa);
    EXPECT_EQ(active().isa, isa);
  }
  // At most one of AVX2/NEON exists on any one machine; the other must be
  // rejected without disturbing the active table.
  const Isa before = active_isa();
  bool avx2 = false, neon = false;
  for (Isa isa : available_isas()) {
    avx2 = avx2 || isa == Isa::kAvx2;
    neon = neon || isa == Isa::kNeon;
  }
  if (!avx2) {
    EXPECT_FALSE(force_isa(Isa::kAvx2));
  }
  if (!neon) {
    EXPECT_FALSE(force_isa(Isa::kNeon));
  }
  EXPECT_EQ(active_isa(), before);
}

// ---- table-level equivalence against the scalar reference ----------------

class SimdVariantP : public ::testing::TestWithParam<Isa> {
 protected:
  const KernelTable& variant() {
    force_isa(GetParam());
    return active();
  }
  const KernelTable& scalar() {
    force_isa(Isa::kScalar);
    return active();
  }
  IsaGuard guard_;
};

TEST_P(SimdVariantP, ElementwiseKernelsAreBitIdenticalToScalar) {
  const KernelTable& var = variant();
  for (std::size_t n : test_lengths(var.width)) {
    const std::vector<double> a = filled(n, 11 + n, -2.0, 2.0);
    const std::vector<double> b = filled(n, 23 + n, 0.5, 2.5);
    std::vector<double> got(n + 1), want(n + 1);
    for (int op = 0; op < kNumBinOps; ++op) {
      variant().bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
      scalar().bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
      for (std::size_t i = 1; i <= n; ++i) {
        ASSERT_TRUE(bit_equal(got[i], want[i]))
            << "bin op " << op << " n " << n << " lane " << i;
      }
    }
    using Unary = void (*)(const double*, double*, std::size_t);
    const std::pair<Unary, Unary> unaries[] = {
        {variant().neg, scalar().neg},
        {variant().square, scalar().square},
        {variant().reciprocal, scalar().reciprocal},
        {variant().sqrt, scalar().sqrt},
        {variant().abs, scalar().abs},
        {variant().relu, scalar().relu},
        {variant().step, scalar().step},
        {variant().sign, scalar().sign},
    };
    for (const auto& [v_fn, s_fn] : unaries) {
      v_fn(a.data() + 1, got.data() + 1, n);
      s_fn(a.data() + 1, want.data() + 1, n);
      for (std::size_t i = 1; i <= n; ++i) {
        ASSERT_TRUE(bit_equal(got[i], want[i])) << "n " << n << " lane " << i;
      }
    }
    variant().scale(a.data() + 1, -1.75, got.data() + 1, n);
    scalar().scale(a.data() + 1, -1.75, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) ASSERT_TRUE(bit_equal(got[i], want[i]));
    variant().add_scalar(a.data() + 1, 0.75, got.data() + 1, n);
    scalar().add_scalar(a.data() + 1, 0.75, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) ASSERT_TRUE(bit_equal(got[i], want[i]));
  }
}

TEST_P(SimdVariantP, StreamingStoreSweepIsBitIdenticalToScalar) {
  // Sweeps above detail::kStreamMinElems take the non-temporal store path
  // (scalar peel to the store alignment, NT body, scalar fringe). The odd
  // length plus the +1 pointer offset exercises both edges; the values
  // must be bit-identical to the plain path regardless.
  const std::size_t n = detail::kStreamMinElems + 7;
  const std::vector<double> a = filled(n, 101, -2.0, 2.0);
  const std::vector<double> b = filled(n, 103, 0.5, 2.5);
  std::vector<double> got(n + 1), want(n + 1);
  for (int op = 0; op < kNumBinOps; ++op) {
    variant().bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
    scalar().bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(bit_equal(got[i], want[i])) << "bin op " << op << " lane "
                                              << i;
    }
  }
}

TEST_P(SimdVariantP, RowBroadcastMatchesScalar) {
  const KernelTable& var = variant();
  for (std::size_t cols : test_lengths(var.width)) {
    if (cols > 1024) continue;  // keep the matrix small
    const std::size_t rows = 3;
    const std::vector<double> a = filled(rows * cols, 31, -2.0, 2.0);
    const std::vector<double> b = filled(cols, 37, 0.5, 2.5);
    std::vector<double> got(rows * cols + 1), want(rows * cols + 1);
    for (int op = 0; op < kNumBinOps; ++op) {
      variant().bin_row[op](a.data() + 1, b.data() + 1, got.data() + 1, rows,
                            cols);
      scalar().bin_row[op](a.data() + 1, b.data() + 1, want.data() + 1, rows,
                           cols);
      for (std::size_t i = 1; i <= rows * cols; ++i) {
        ASSERT_TRUE(bit_equal(got[i], want[i]))
            << "row op " << op << " cols " << cols << " lane " << i;
      }
    }
  }
}

TEST_P(SimdVariantP, InplaceAndAdamKernelsAreBitIdenticalToScalar) {
  const KernelTable& var = variant();
  AdamParams cfg;
  cfg.lr = 1e-3;
  cfg.beta1 = 0.9;
  cfg.beta2 = 0.999;
  cfg.eps = 1e-8;
  cfg.weight_decay = 0.01;
  cfg.bias_corr1 = 0.1;
  cfg.bias_corr2 = 0.001;
  for (std::size_t n : test_lengths(var.width)) {
    const std::vector<double> src = filled(n, 41 + n, -2.0, 2.0);
    std::vector<double> got = filled(n, 43 + n, -2.0, 2.0);
    std::vector<double> want = got;

    variant().axpy(got.data() + 1, 0.5, src.data() + 1, n);
    scalar().axpy(want.data() + 1, 0.5, src.data() + 1, n);
    variant().scale_inplace(got.data() + 1, 0.9, n);
    scalar().scale_inplace(want.data() + 1, 0.9, n);
    variant().acc_add(got.data() + 1, src.data() + 1, n);
    scalar().acc_add(want.data() + 1, src.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(bit_equal(got[i], want[i])) << "n " << n << " lane " << i;
    }

    for (bool decoupled : {false, true}) {
      cfg.decoupled = decoupled;
      std::vector<double> pv = filled(n, 47 + n, -1.0, 1.0);
      std::vector<double> ps = pv;
      const std::vector<double> g = filled(n, 53 + n, -1.0, 1.0);
      std::vector<double> mv = filled(n, 59 + n, -0.1, 0.1);
      std::vector<double> ms = mv;
      std::vector<double> vv = filled(n, 61 + n, 0.0, 0.1);
      std::vector<double> vs = vv;
      variant().adam(pv.data() + 1, g.data() + 1, mv.data() + 1,
                     vv.data() + 1, n, cfg);
      scalar().adam(ps.data() + 1, g.data() + 1, ms.data() + 1,
                    vs.data() + 1, n, cfg);
      for (std::size_t i = 1; i <= n; ++i) {
        ASSERT_TRUE(bit_equal(pv[i], ps[i])) << "param lane " << i;
        ASSERT_TRUE(bit_equal(mv[i], ms[i])) << "m lane " << i;
        ASSERT_TRUE(bit_equal(vv[i], vs[i])) << "v lane " << i;
      }
    }
  }
}

TEST_P(SimdVariantP, ReductionsMatchScalarWithinReassociationTolerance) {
  const KernelTable& var = variant();
  for (std::size_t n : test_lengths(var.width)) {
    const std::vector<double> a = filled(n, 67 + n, -2.0, 2.0);
    const std::vector<double> b = filled(n, 71 + n, -2.0, 2.0);
    const std::vector<double> w = filled(n, 73 + n, 0.0, 1.0);
    const double tol = 1e-12 * static_cast<double>(n);
    EXPECT_NEAR(variant().dot(a.data() + 1, b.data() + 1, n),
                scalar().dot(a.data() + 1, b.data() + 1, n), tol);
    EXPECT_NEAR(variant().sum(a.data() + 1, n), scalar().sum(a.data() + 1, n),
                tol);
    EXPECT_NEAR(variant().square_sum(a.data() + 1, n),
                scalar().square_sum(a.data() + 1, n), tol);
    EXPECT_NEAR(variant().weighted_square_sum(w.data() + 1, a.data() + 1, n),
                scalar().weighted_square_sum(w.data() + 1, a.data() + 1, n),
                tol);
  }
}

TEST_P(SimdVariantP, MatmulMicroKernelsMatchScalarWithinTolerance) {
  // Odd sizes so every tile path (full column tiles, fringe columns,
  // leftover rows) runs.
  const std::int64_t n = 7, k = 9, m = 13;
  const std::vector<double> a = filled(static_cast<std::size_t>(n * k), 79,
                                       -1.0, 1.0);
  const std::vector<double> at = filled(static_cast<std::size_t>(k * n), 83,
                                        -1.0, 1.0);
  const std::vector<double> b = filled(static_cast<std::size_t>(k * m), 89,
                                       -1.0, 1.0);
  const std::size_t out_n = static_cast<std::size_t>(n * m);
  std::vector<double> got(out_n + 1), want(out_n + 1);

  const auto check = [&](const char* what) {
    for (std::size_t i = 1; i <= out_n; ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-12) << what << " lane " << i;
    }
  };
  std::fill(got.begin(), got.end(), 0.0);
  std::fill(want.begin(), want.end(), 0.0);
  variant().matmul_rows(a.data() + 1, b.data() + 1, got.data() + 1, 0, n, k,
                        m);
  scalar().matmul_rows(a.data() + 1, b.data() + 1, want.data() + 1, 0, n, k,
                       m);
  check("matmul");
  std::fill(got.begin(), got.end(), 0.0);
  std::fill(want.begin(), want.end(), 0.0);
  variant().matmul_tn_rows(at.data() + 1, b.data() + 1, got.data() + 1, 0, n,
                           k, n, m);
  scalar().matmul_tn_rows(at.data() + 1, b.data() + 1, want.data() + 1, 0, n,
                          k, n, m);
  check("matmul_tn");
}

// ---- matmul accumulation rule -------------------------------------------
//
// The documented per-element rule of the matmul micro-kernels (simd.hpp),
// recomputed naively. Element (i, j) of a call over rows [i0, i1) is tiled
// when it sits in a complete row-tile x 8 block counted from i0 and column
// 0; tiled elements chain the variant's fma from zero in ascending kk,
// every other element chains the unfused acc + a*b. The row tile and
// whether fma fuses are per-variant constants, pinned here on purpose.

struct MmRule {
  std::int64_t row_tile;
  bool fused;
};

MmRule mm_rule(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: return {4, true};
    case Isa::kNeon: return {2, true};
    case Isa::kSse2: return {2, false};
    case Isa::kScalar: break;
  }
  return {4, false};
}

/// a * b rounded on its own: the volatile store keeps the compiler from
/// contracting the following add into an FMA.
template <class T>
T rounded_product(T a, T b) {
  volatile T p = a * b;
  return p;
}

/// Naive reference over rows [i0, n); a(i, kk) = a[i*k + kk], or
/// a[kk*n + i] when `tn`.
template <class T>
std::vector<T> mm_reference(const MmRule& rule, const std::vector<T>& a,
                            const std::vector<T>& b, bool tn, std::int64_t i0,
                            std::int64_t n, std::int64_t k, std::int64_t m) {
  std::vector<T> o(static_cast<std::size_t>(n * m));
  const std::int64_t tiled_rows = (n - i0) / rule.row_tile * rule.row_tile;
  const std::int64_t tiled_cols = m / 8 * 8;
  for (std::int64_t i = i0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      const bool tiled = i - i0 < tiled_rows && j < tiled_cols;
      T acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const T x = a[static_cast<std::size_t>(tn ? kk * n + i : i * k + kk)];
        const T y = b[static_cast<std::size_t>(kk * m + j)];
        acc = tiled && rule.fused ? std::fma(x, y, acc)
                                  : acc + rounded_product(x, y);
      }
      o[static_cast<std::size_t>(i * m + j)] = acc;
    }
  }
  return o;
}

template <class T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <class T>
void expect_mm_rule(const KernelTableT<T>& table, const MmRule& rule,
                    std::int64_t n, std::int64_t k, std::int64_t m,
                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> a(static_cast<std::size_t>(n * k));
  std::vector<T> b(static_cast<std::size_t>(k * m));
  for (T& x : a) x = static_cast<T>(2.0 * rng.uniform() - 1.0);
  for (T& x : b) x = static_cast<T>(2.0 * rng.uniform() - 1.0);
  // The same values stored [k, n] for the transposed-read entry.
  std::vector<T> at(a.size());
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      at[static_cast<std::size_t>(kk * n + i)] =
          a[static_cast<std::size_t>(i * k + kk)];
    }
  }
  const T sentinel = std::numeric_limits<T>::quiet_NaN();
  for (const std::int64_t i0 : {std::int64_t{0}, std::int64_t{1}}) {
    if (i0 >= n) continue;
    const std::vector<T> want = mm_reference(rule, a, b, false, i0, n, k, m);
    for (const bool tn : {false, true}) {
      SCOPED_TRACE(std::string(tn ? "matmul_tn_rows" : "matmul_rows") + " " +
                   std::to_string(n) + "x" + std::to_string(k) + "x" +
                   std::to_string(m) + " i0=" + std::to_string(i0));
      // Garbage in the output: every element of [i0, n) must be written,
      // and rows before i0 must be left alone.
      std::vector<T> got(want.size(), sentinel);
      if (tn) {
        table.matmul_tn_rows(at.data(), b.data(), got.data(), i0, n, k, n, m);
      } else {
        table.matmul_rows(a.data(), b.data(), got.data(), i0, n, k, m);
      }
      for (std::size_t e = 0; e < got.size(); ++e) {
        if (static_cast<std::int64_t>(e) < i0 * m) {
          ASSERT_TRUE(std::isnan(got[e])) << "row before i0 written, " << e;
          continue;
        }
        ASSERT_TRUE(same_bits(got[e], want[e]))
            << "element " << e << ": " << got[e] << " vs " << want[e];
      }
    }
  }
}

TEST_P(SimdVariantP, MatmulKernelsFollowTheDocumentedAccumulationRule) {
  force_isa(GetParam());
  const MmRule rule = mm_rule(GetParam());
  struct Dims {
    std::int64_t n, k, m;
  };
  // The step's [900,64]x[64,64] shape; k past the depth block; m = 2 and
  // n = 2 (all fringe); a 16-column block plus an 8-column tail; k == 0.
  const Dims cases[] = {{900, 64, 64}, {64, 900, 64}, {9, 1000, 13},
                        {900, 64, 2},  {2, 64, 64},   {13, 17, 11},
                        {7, 9, 24},    {31, 5, 40},   {5, 0, 9},
                        {6, 3, 1}};
  std::uint64_t seed = 500;
  for (const Dims& d : cases) {
    expect_mm_rule(active(), rule, d.n, d.k, d.m, seed++);
    expect_mm_rule(active_f32(), rule, d.n, d.k, d.m, seed++);
  }
}

TEST_P(SimdVariantP, NanAndInfPropagateLikeScalar) {
  const KernelTable& var = variant();
  const std::size_t n = var.width * 2 + 1;
  std::vector<double> a(n + 1, 1.0), b(n + 1, 2.0);
  a[1] = kNan;
  a[2] = kInf;
  b[2] = -kInf;
  a[3] = 0.0;
  b[3] = kNan;  // 0 * NaN must stay NaN — max-based tricks would lose it
  std::vector<double> got(n + 1), want(n + 1);
  for (int op = 0; op < kNumBinOps; ++op) {
    variant().bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
    scalar().bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(bit_equal(got[i], want[i]))
          << "bin op " << op << " lane " << i;
    }
  }
  EXPECT_TRUE(std::isnan(got[1]));  // NaN + finite
  variant().bin_same[kMul](a.data() + 1, b.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[3])) << "0 * NaN was dropped";

  // relu/step/sign: comparisons with NaN are false, so NaN maps to 0 in
  // every variant (same as the scalar ternary).
  using Unary = void (*)(const double*, double*, std::size_t);
  for (Unary v_fn : {var.relu, var.step, var.sign}) {
    v_fn(a.data() + 1, got.data() + 1, n);
    EXPECT_TRUE(bit_equal(got[1], 0.0));
  }
  variant().neg(a.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[1]));
  EXPECT_EQ(got[2], -kInf);
}

TEST_P(SimdVariantP, F32NanAndInfPropagateLikeScalar) {
  // The fp32 tables carry the same IEEE propagation contract as the fp64
  // ones: mixed-precision replay must surface a NaN/Inf produced inside an
  // fp32 sweep instead of laundering it — the trainer's divergence
  // detection reads the upcast results.
  constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInfF = std::numeric_limits<float>::infinity();
  force_isa(GetParam());
  const KernelTableF& var = active_f32();
  const std::size_t n = var.width * 2 + 1;
  std::vector<float> a(n + 1, 1.0f), b(n + 1, 2.0f);
  a[1] = kNanF;
  a[2] = kInfF;
  b[2] = -kInfF;
  a[3] = 0.0f;
  b[3] = kNanF;  // 0 * NaN must stay NaN — max-based tricks would lose it
  std::vector<float> got(n + 1), want(n + 1);
  force_isa(Isa::kScalar);
  const KernelTableF& ref = active_f32();
  force_isa(GetParam());
  for (int op = 0; op < kNumBinOps; ++op) {
    var.bin_same[op](a.data() + 1, b.data() + 1, got.data() + 1, n);
    ref.bin_same[op](a.data() + 1, b.data() + 1, want.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      ASSERT_TRUE(std::memcmp(&got[i], &want[i], sizeof(float)) == 0)
          << "f32 bin op " << op << " lane " << i;
    }
  }
  EXPECT_TRUE(std::isnan(got[1]));  // NaN + finite
  var.bin_same[kMul](a.data() + 1, b.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[3])) << "f32 0 * NaN was dropped";
  var.bin_same[kAdd](a.data() + 1, b.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[2])) << "f32 inf + -inf must be NaN";

  // Unary edge semantics mirror the fp64 table: comparisons with NaN are
  // false, so relu/step/sign map NaN to 0; neg and tanh propagate.
  using UnaryF = void (*)(const float*, float*, std::size_t);
  for (UnaryF v_fn : {var.relu, var.step, var.sign}) {
    v_fn(a.data() + 1, got.data() + 1, n);
    EXPECT_EQ(got[1], 0.0f);
  }
  var.neg(a.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[1]));
  EXPECT_EQ(got[2], -kInfF);
  var.tanh(a.data() + 1, got.data() + 1, n);
  EXPECT_TRUE(std::isnan(got[1]));
  EXPECT_EQ(got[2], 1.0f);

  // Reductions accumulate in double but must still propagate: a NaN lane
  // poisons the fp64 accumulator exactly as in the fp64 tables.
  EXPECT_TRUE(std::isnan(var.sum(a.data() + 1, n)));
  EXPECT_TRUE(std::isnan(var.square_sum(b.data() + 1, n)));
}

TEST_P(SimdVariantP, TanhIsBitIdenticalToScalarAndNearLibm) {
  const KernelTable& var = variant();
  // Dense sweep across the interesting ranges: around zero, the Taylor
  // cutoff at |2x| = 0.5, the saturation threshold 19.0625, and beyond.
  std::vector<double> xs;
  for (int i = -400; i <= 400; ++i) xs.push_back(0.05 * i);
  for (double x : {1e-320, 1e-30, 0.2499, 0.25, 0.2501, 19.0624, 19.0625,
                   19.0626, 700.0}) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  xs.insert(xs.end(), {0.0, -0.0, kNan, kInf, -kInf});
  const std::size_t n = xs.size();
  std::vector<double> got(n), want(n);
  var.tanh(xs.data(), got.data(), n);
  scalar().tanh(xs.data(), want.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(bit_equal(got[i], want[i]))
        << "tanh(" << xs[i] << ") differs from the scalar variant";
    if (std::isfinite(xs[i])) {
      // Accuracy: a few ulp of libm everywhere (|tanh| <= 1, so absolute
      // tolerance is also relative tolerance).
      EXPECT_NEAR(got[i], std::tanh(xs[i]), 5e-15) << "x = " << xs[i];
    }
  }
  // Edge semantics: NaN propagates; +-inf and saturated inputs hit +-1
  // exactly; signed zero and tiny inputs come back unchanged.
  const auto at = [&](double x) {
    double out;
    var.tanh(&x, &out, 1);
    return out;
  };
  EXPECT_TRUE(std::isnan(at(kNan)));
  EXPECT_EQ(at(kInf), 1.0);
  EXPECT_EQ(at(-kInf), -1.0);
  EXPECT_EQ(at(20.0), 1.0);
  EXPECT_EQ(at(-20.0), -1.0);
  EXPECT_TRUE(bit_equal(at(0.0), 0.0));
  EXPECT_TRUE(bit_equal(at(-0.0), -0.0));
  EXPECT_EQ(at(1e-320), 1e-320);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, SimdVariantP,
                         ::testing::ValuesIn(available_isas()),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return isa_name(info.param);
                         });

// ---- tensor-level kernels under every variant ----------------------------

TEST(SimdKernels, FusedKernelsMatchTheirCompositionUnderEveryVariant) {
  IsaGuard guard;
  Rng rng(20260806);
  const Tensor a = Tensor::rand({5, 7}, rng, -2.0, 2.0);
  const Tensor bias = Tensor::rand({1, 7}, rng, -1.0, 1.0);
  const Tensor w_same = Tensor::rand({5, 7}, rng, 0.0, 1.0);
  const Tensor w_col = Tensor::rand({5, 1}, rng, 0.0, 1.0);
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    const Tensor bt = kernels::bias_tanh(a, bias);
    const Tensor bs = kernels::bias_sin(a, bias);
    const Tensor plain = kernels::add(a, bias);
    // bias_tanh must agree bitwise with the unfused tanh(add(..)) chain
    // (both use the same polynomial kernel) and stay within a few ulp of
    // libm; bias_sin still goes through std::sin exactly.
    const Tensor tanh_chain = kernels::tanh(plain);
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_EQ(bt[i], tanh_chain[i]) << isa_name(isa);
      EXPECT_NEAR(bt[i], std::tanh(plain[i]), 5e-15) << isa_name(isa);
      EXPECT_DOUBLE_EQ(bs[i], std::sin(plain[i])) << isa_name(isa);
    }
    EXPECT_NEAR(kernels::square_sum_all(a)[0],
                kernels::sum_all(kernels::mul(a, a))[0], 1e-12);
    EXPECT_NEAR(kernels::weighted_square_sum_all(w_same, a)[0],
                kernels::sum_all(kernels::mul(w_same, kernels::mul(a, a)))[0],
                1e-12);
    // (N,1) weights against (N,C): per-row weight times the row's square sum.
    double want = 0.0;
    for (std::int64_t r = 0; r < a.rows(); ++r) {
      for (std::int64_t c = 0; c < a.cols(); ++c) {
        want += w_col[r] * a[r * a.cols() + c] * a[r * a.cols() + c];
      }
    }
    EXPECT_NEAR(kernels::weighted_square_sum_all(w_col, a)[0], want, 1e-12);

    // tanh_grad must agree bitwise with the composition it replaces in
    // optimized plans: mul(g, add_scalar(neg(square(t)), 1.0)). The fused
    // kernel performs the identical IEEE op sequence (no FMA), so this is
    // EXPECT_EQ, not NEAR — the plan optimizer's bit-identity contract
    // depends on it.
    const Tensor tg = kernels::tanh_grad(w_same, a);
    const Tensor tg_chain = kernels::mul(
        w_same, kernels::add_scalar(kernels::neg(kernels::square(a)), 1.0));
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_EQ(tg[i], tg_chain[i]) << isa_name(isa);
    }
  }
}

// matmul_tn reads a[k,n] in place; it must equal the composition it
// replaces in optimized plans — transpose, then matmul — to the last bit,
// in both precisions, including the pool's row chunking.
TEST(SimdKernels, MatmulTnEqualsMatmulOfTransposeBitwise) {
  IsaGuard guard;
  Rng rng(31);
  struct Dims {
    std::int64_t k, n, m;
  };
  const Dims cases[] = {{900, 64, 64}, {900, 64, 2}, {450, 64, 64},
                        {900, 2, 64},  {13, 7, 5},   {64, 64, 64}};
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    for (const Dims& d : cases) {
      SCOPED_TRACE(std::string(isa_name(isa)) + " " + std::to_string(d.k) +
                   "x" + std::to_string(d.n) + "x" + std::to_string(d.m));
      const Tensor a = Tensor::rand({d.k, d.n}, rng, -1.0, 1.0);
      const Tensor b = Tensor::rand({d.k, d.m}, rng, -1.0, 1.0);
      const Tensor tn = kernels::matmul_tn(a, b);
      const Tensor ref = kernels::matmul(kernels::transpose(a), b);
      for (std::int64_t i = 0; i < tn.numel(); ++i) {
        ASSERT_TRUE(bit_equal(tn[i], ref[i])) << "element " << i;
      }

      std::vector<float> af(static_cast<std::size_t>(a.numel()));
      std::vector<float> bf(static_cast<std::size_t>(b.numel()));
      for (std::size_t i = 0; i < af.size(); ++i) {
        af[i] = static_cast<float>(a.data()[i]);
      }
      for (std::size_t i = 0; i < bf.size(); ++i) {
        bf[i] = static_cast<float>(b.data()[i]);
      }
      const auto out_n = static_cast<std::size_t>(d.n * d.m);
      std::vector<float> tnf(out_n), reff(out_n), atf(af.size());
      kernels_f32::matmul_tn(af.data(), bf.data(), tnf.data(), d.n, d.k,
                             d.m);
      kernels_f32::transpose(af.data(), atf.data(), d.k, d.n);
      kernels_f32::matmul(atf.data(), bf.data(), reff.data(), d.n, d.k, d.m);
      for (std::size_t i = 0; i < out_n; ++i) {
        ASSERT_TRUE(same_bits(tnf[i], reff[i])) << "f32 element " << i;
      }
    }
  }
}

TEST(SimdKernels, FusedAdamMatchesTheUnfusedUpdate) {
  IsaGuard guard;
  Rng rng(7);
  const std::int64_t n = 130;  // not a multiple of any vector width
  kernels::AdamStepConfig cfg;
  cfg.lr = 1e-3;
  cfg.beta1 = 0.9;
  cfg.beta2 = 0.999;
  cfg.eps = 1e-8;
  cfg.weight_decay = 0.01;
  cfg.bias_corr1 = 1.0 - cfg.beta1;
  cfg.bias_corr2 = 1.0 - cfg.beta2;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    for (bool decoupled : {false, true}) {
      cfg.decoupled = decoupled;
      Rng local(99);
      Tensor p = Tensor::rand({n}, local, -1.0, 1.0);
      const Tensor p0 = p.clone();
      const Tensor g = Tensor::rand({n}, local, -1.0, 1.0);
      Tensor m = Tensor::zeros({n});
      Tensor v = Tensor::zeros({n});
      kernels::adam_step_inplace(p, g, m, v, cfg);
      for (std::int64_t i = 0; i < n; ++i) {
        double gi = g[i];
        double pi = p0[i];
        if (!decoupled) gi += cfg.weight_decay * pi;
        const double mi = cfg.beta1 * 0.0 + (1.0 - cfg.beta1) * gi;
        const double vi = cfg.beta2 * 0.0 + (1.0 - cfg.beta2) * (gi * gi);
        ASSERT_NEAR(m[i], mi, 1e-15);
        ASSERT_NEAR(v[i], vi, 1e-15);
        const double mhat = mi / cfg.bias_corr1;
        const double vhat = vi / cfg.bias_corr2;
        double update = mhat / (std::sqrt(vhat) + cfg.eps);
        if (decoupled) update += cfg.weight_decay * pi;
        ASSERT_NEAR(p[i], pi - cfg.lr * update, 1e-14)
            << isa_name(isa) << " lane " << i;
      }
    }
  }
}

TEST(SimdKernels, TrainingKernelsAgreeAcrossVariantsOnOddShapes) {
  // End-to-end: the tensor-level entry points (which chunk via the thread
  // pool before hitting the table) agree across variants on shapes that
  // exercise fringes.
  IsaGuard guard;
  Rng rng(12345);
  const Tensor a = Tensor::rand({13, 17}, rng, -2.0, 2.0);
  const Tensor b = Tensor::rand({13, 17}, rng, 0.5, 2.5);
  const Tensor mm_b = Tensor::rand({17, 11}, rng, -1.0, 1.0);

  ASSERT_TRUE(force_isa(Isa::kScalar));
  const Tensor add_ref = kernels::add(a, b);
  const Tensor div_ref = kernels::div(a, b);
  const Tensor mm_ref = kernels::matmul(a, mm_b);
  const double dot_ref = kernels::dot(a, b);

  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa));
    const Tensor add_v = kernels::add(a, b);
    const Tensor div_v = kernels::div(a, b);
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      ASSERT_DOUBLE_EQ(add_v[i], add_ref[i]) << isa_name(isa);
      ASSERT_DOUBLE_EQ(div_v[i], div_ref[i]) << isa_name(isa);
    }
    const Tensor mm_v = kernels::matmul(a, mm_b);
    for (std::int64_t i = 0; i < mm_ref.numel(); ++i) {
      ASSERT_NEAR(mm_v[i], mm_ref[i], 1e-12) << isa_name(isa);
    }
    ASSERT_NEAR(kernels::dot(a, b), dot_ref, 1e-10) << isa_name(isa);
  }
}

}  // namespace
}  // namespace qpinn::simd
