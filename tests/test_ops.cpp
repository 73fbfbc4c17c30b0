// Unit + property tests for tensor ops: GEMM variants, elementwise math,
// softmax family, reductions. Property sweeps use TEST_P over random shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "reference_ops.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace itask {
namespace {

using ops::matmul;
using refops::matmul_at;
using refops::matmul_bt;
using refops::transpose2d;

TEST(Ops, AddSubMul) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {3.0f, 5.0f});
  EXPECT_TRUE(ops::add(a, b).allclose(Tensor({2}, {4.0f, 7.0f})));
  EXPECT_TRUE(
      refops::add_scalar(a, 1.0f).allclose(Tensor({2}, {2.0f, 3.0f})));
  EXPECT_TRUE(ops::mul_scalar(a, -2.0f).allclose(Tensor({2}, {-2.0f, -4.0f})));
}

TEST(Ops, ShapeMismatchThrows) {
  EXPECT_THROW(ops::add(Tensor({2}), Tensor({3})), std::invalid_argument);
}

TEST(Ops, InplaceVariants) {
  Tensor a({2}, {1.0f, 2.0f});
  ops::add_inplace(a, Tensor({2}, {1.0f, 1.0f}));
  EXPECT_TRUE(a.allclose(Tensor({2}, {2.0f, 3.0f})));
  ops::axpy_inplace(a, 2.0f, Tensor({2}, {1.0f, 0.5f}));
  EXPECT_TRUE(a.allclose(Tensor({2}, {4.0f, 4.0f})));
}

TEST(Ops, AddRowwise) {
  Tensor a({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {1.0f, 2.0f, 3.0f});
  Tensor out = refops::add_rowwise(a, bias);
  EXPECT_TRUE(out.allclose(Tensor({2, 3}, {1, 2, 3, 2, 3, 4})));
  EXPECT_THROW(refops::add_rowwise(a, Tensor({2})),
               std::invalid_argument);
}

TEST(Ops, MatmulHandCase) {
  Tensor a = Tensor::from_rows({{1, 2}, {3, 4}});
  Tensor b = Tensor::from_rows({{5, 6}, {7, 8}});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(c.allclose(Tensor::from_rows({{19, 22}, {43, 50}})));
}

TEST(Ops, MatmulInnerMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})),
               std::invalid_argument);
}

TEST(Ops, Transpose2d) {
  Tensor a = Tensor::from_rows({{1, 2, 3}, {4, 5, 6}});
  Tensor t = transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 5.0f);
}

// ---- property sweeps over random shapes -----------------------------------

class GemmProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GemmProperty, TransposedVariantsAgree) {
  const auto [m, k, n, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  Tensor a = rng.randn({m, k});
  Tensor b = rng.randn({k, n});
  const Tensor ref = matmul(a, b);
  EXPECT_TRUE(matmul_bt(a, transpose2d(b)).allclose(ref, 1e-4f));
  EXPECT_TRUE(matmul_at(transpose2d(a), b).allclose(ref, 1e-4f));
}

TEST_P(GemmProperty, BatchedMatchesLooped) {
  const auto [m, k, n, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 100);
  constexpr int64_t kBatch = 3;
  Tensor a = rng.randn({kBatch, m, k});
  Tensor b = rng.randn({kBatch, k, n});
  Tensor out = ops::bmm(a, b);
  for (int64_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(out.index(i).allclose(matmul(a.index(i), b.index(i)), 1e-4f));
  }
  // bmm_bt / bmm_at consistency with explicit transposes.
  Tensor bt({kBatch, n, k});
  for (int64_t i = 0; i < kBatch; ++i)
    bt.set_index(i, transpose2d(b.index(i)));
  EXPECT_TRUE(ops::bmm_bt(a, bt).allclose(out, 1e-4f));
  Tensor at({kBatch, k, m});
  for (int64_t i = 0; i < kBatch; ++i)
    at.set_index(i, transpose2d(a.index(i)));
  EXPECT_TRUE(ops::bmm_at(at, b).allclose(out, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmProperty,
    ::testing::Values(std::make_tuple(1, 1, 1, 1), std::make_tuple(2, 3, 4, 2),
                      std::make_tuple(5, 7, 3, 3), std::make_tuple(8, 8, 8, 4),
                      std::make_tuple(1, 16, 5, 5),
                      std::make_tuple(13, 1, 9, 6),
                      std::make_tuple(4, 32, 2, 7)));

class SoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxProperty, RowsSumToOneAndLogAgrees) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Tensor x = rng.randn({4, 7}, 0.0f, 3.0f);
  Tensor sm = ops::softmax_lastdim(x);
  Tensor lsm = ops::log_softmax_lastdim(x);
  for (int64_t r = 0; r < 4; ++r) {
    float row_sum = 0.0f;
    for (int64_t c = 0; c < 7; ++c) {
      const float p = sm.at({r, c});
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
      row_sum += p;
      EXPECT_NEAR(std::log(p), lsm.at({r, c}), 1e-4f);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
  }
}

TEST_P(SoftmaxProperty, InvariantToRowShift) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 50);
  Tensor x = rng.randn({3, 5});
  Tensor shifted = refops::add_scalar(x, 100.0f);
  EXPECT_TRUE(ops::softmax_lastdim(x).allclose(
      ops::softmax_lastdim(shifted), 1e-5f));
}

TEST_P(SoftmaxProperty, BackwardMatchesFiniteDifference) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  Tensor x = rng.randn({2, 4});
  Tensor g = rng.randn({2, 4});
  Tensor y = ops::softmax_lastdim(x);
  Tensor dx = ops::softmax_backward_lastdim(y, g);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const Tensor yp = ops::softmax_lastdim(xp);
    const Tensor ym = ops::softmax_lastdim(xm);
    float numeric = 0.0f;
    for (int64_t j = 0; j < x.numel(); ++j)
      numeric += g[j] * (yp[j] - ym[j]) / (2.0f * eps);
    EXPECT_NEAR(dx[i], numeric, 5e-3f) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty, ::testing::Values(1, 2, 3, 4));

TEST(Ops, GeluValuesAndGradFiniteDiff) {
  Tensor x({5}, {-2.0f, -0.5f, 0.0f, 0.5f, 2.0f});
  Tensor y = ops::gelu(x);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
  EXPECT_NEAR(y[4], 1.9546f, 1e-3f);   // gelu(2) ≈ 1.9546
  EXPECT_NEAR(y[0], -0.0454f, 1e-3f);  // gelu(-2) ≈ -0.0454
  Tensor g({5}, 1.0f);
  Tensor dx = ops::gelu_grad(x, g);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < 5; ++i) {
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const float numeric =
        (ops::gelu(xp)[i] - ops::gelu(xm)[i]) / (2.0f * eps);
    EXPECT_NEAR(dx[i], numeric, 1e-3f);
  }
}

// ops::gelu/gelu_grad run eight-lane blocks (AVX2 + FMA builds) and a
// scalar tail; a length-1 tensor always takes the scalar form.
Tensor one_element(float x) { return Tensor({1}, {x}); }

bool same_float(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof a) == 0;
}

// Values that stress the exp arithmetic under GELU: random normals, ±0,
// denormals, exp arguments around both clamp edges (−2u crosses
// ln FLT_MAX near x ≈ −10.4 and ln FLT_MIN near x ≈ 10.3), |x| whose cube
// overflows, ±inf and NaN.
std::vector<float> gelu_probe_values() {
  std::vector<float> v = {0.0f,
                          -0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          1e-40f,
                          -1e-40f,
                          std::numeric_limits<float>::min(),
                          1e13f,
                          -1e13f,
                          1e20f,
                          -1e20f,
                          std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::lowest(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()};
  for (float x = 9.5f; x <= 11.0f; x += 1e-3f) {
    v.push_back(x);
    v.push_back(-x);
  }
  Rng rng(17);
  for (int i = 0; i < 4000; ++i) v.push_back(rng.normal(0.0f, 1.5f));
  return v;
}

TEST(GeluKernel, LanesMatchScalarBitForBit) {
  const std::vector<float> values = gelu_probe_values();
  Rng rng(3);
  EXPECT_EQ(ops::gelu(Tensor({0})).numel(), 0);
  EXPECT_EQ(ops::gelu_grad(Tensor({0}), Tensor({0})).numel(), 0);
  for (int64_t n = 1; n <= 17; ++n) {
    const size_t len = static_cast<size_t>(n);
    for (size_t start = 0; start + len <= values.size(); start += len) {
      Tensor x({n});
      Tensor g({n});
      for (int64_t i = 0; i < n; ++i) {
        x[i] = values[start + static_cast<size_t>(i)];
        g[i] = rng.normal();
      }
      const Tensor y = ops::gelu(x);
      const Tensor dx = ops::gelu_grad(x, g);
      for (int64_t i = 0; i < n; ++i) {
        const Tensor xi = one_element(x[i]);
        ASSERT_TRUE(same_float(y[i], ops::gelu(xi)[0]))
            << "gelu, x = " << x[i] << ", slot " << i << " of " << n;
        ASSERT_TRUE(
            same_float(dx[i], ops::gelu_grad(xi, one_element(g[i]))[0]))
            << "gelu_grad, x = " << x[i] << ", slot " << i << " of " << n;
      }
    }
  }
}

TEST(GeluKernel, EdgeValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  // Run every value at a lane slot and at a tail slot.
  for (const int64_t n : {int64_t{1}, int64_t{9}}) {
    const auto at = [n](float x) {
      return ops::gelu(Tensor({n}, std::vector<float>(n, x)));
    };
    EXPECT_TRUE(std::isnan(at(std::numeric_limits<float>::quiet_NaN())[0]));
    EXPECT_EQ(at(kInf)[0], kInf);
    // exp's clamped argument keeps σ(2u) ≥ 1/FLT_MAX, so −inf stays −inf.
    EXPECT_EQ(at(-kInf)[0], -kInf);
    EXPECT_EQ(at(0.0f)[0], 0.0f);
    EXPECT_TRUE(std::signbit(at(-0.0f)[0]));
    for (const float x : gelu_probe_values()) {
      if (!std::isfinite(x)) continue;
      const Tensor y = at(x);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_FALSE(std::isnan(y[i])) << "x = " << x;
      }
    }
  }
}

// GELU and its slope within 2.5e-7·(1 + |ref|) of the same tanh form in
// long double, on [−12, 12] and on random normals: about two float ulps
// near |ref| = 1, the sum of the exp routine's ≤ 1.06 ulp and the
// rounding of u, the denominator and the quotient.
TEST(GeluKernel, AccuracyAgainstLongDouble) {
  const auto ref = [](long double x) {
    const long double c = std::sqrt(2.0L / 3.14159265358979323846264L);
    const long double u = c * (x + 0.044715L * x * x * x);
    const long double t = std::tanh(u);
    const long double du = c * (1.0L + 3.0L * 0.044715L * x * x);
    return std::pair{0.5L * x * (1.0L + t),
                     0.5L * (1.0L + t) + 0.5L * x * (1.0L - t * t) * du};
  };
  std::vector<float> xs;
  for (int i = -120000; i <= 120000; ++i) xs.push_back(i * 1e-4f);
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(0.0f, 1.5f));
  const int64_t n = static_cast<int64_t>(xs.size());
  const Tensor x({n}, xs);
  const Tensor y = ops::gelu(x);
  const Tensor dy = ops::gelu_grad(x, Tensor({n}, 1.0f));
  double worst_y = 0.0;
  double worst_dy = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const auto [ry, rdy] = ref(x[i]);
    worst_y = std::max(worst_y, static_cast<double>(std::abs(y[i] - ry) /
                                                    (1.0L + std::abs(ry))));
    worst_dy = std::max(
        worst_dy, static_cast<double>(std::abs(dy[i] - rdy) /
                                      (1.0L + std::abs(rdy))));
  }
  EXPECT_LE(worst_y, 2.5e-7);
  EXPECT_LE(worst_dy, 2.5e-7);
}

TEST(GeluKernel, GradFiniteDiffOnLanes) {
  Rng rng(11);
  const int64_t n = 19;  // two lane blocks and a three-element tail
  Tensor x({n});
  for (int64_t i = 0; i < n; ++i) x[i] = rng.normal(0.0f, 1.5f);
  const Tensor dx = ops::gelu_grad(x, Tensor({n}, 1.0f));
  const float eps = 1e-3f;
  Tensor xp = x;
  Tensor xm = x;
  for (int64_t i = 0; i < n; ++i) {
    xp[i] += eps;
    xm[i] -= eps;
  }
  const Tensor yp = ops::gelu(xp);
  const Tensor ym = ops::gelu(xm);
  for (int64_t i = 0; i < n; ++i) {
    const float numeric = (yp[i] - ym[i]) / (xp[i] - xm[i]);
    EXPECT_NEAR(dx[i], numeric, 1e-3f) << "x = " << x[i];
  }
}

TEST(Ops, Sigmoid) {
  Tensor x({3}, {0.0f, 2.0f, -2.0f});
  Tensor s = ops::sigmoid(x);
  EXPECT_NEAR(s[0], 0.5f, 1e-6f);
  EXPECT_NEAR(s[1], 0.8808f, 1e-3f);
  EXPECT_NEAR(s[1] + s[2], 1.0f, 1e-5f);  // sigmoid symmetry
}

TEST(Ops, Reductions) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_NEAR(ops::sum(x), 21.0f, 1e-5f);
  EXPECT_NEAR(ops::mean(x), 3.5f, 1e-5f);
  EXPECT_NEAR(refops::l2_norm(Tensor({2}, {3.0f, 4.0f})), 5.0f, 1e-5f);
  Tensor col = refops::sum_to_lastdim(x);
  EXPECT_TRUE(col.allclose(Tensor({3}, {5.0f, 7.0f, 9.0f})));
}

TEST(Ops, Stack) {
  Tensor a({2}, {1, 2});
  Tensor b({3}, {3, 4, 5});
  Tensor s = ops::stack({a, a});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_THROW(ops::stack({a, b}), std::invalid_argument);
}

}  // namespace
}  // namespace itask
