// Cross-validation of the functional (data-carrying) systolic simulator
// against the INT8 GEMM kernel (numerics) and the analytic timing model
// (cycle counts) — DESIGN.md §7's strongest accelerator-model evidence.
#include <gtest/gtest.h>

#include <tuple>

#include "accel/functional_array.h"
#include "accel/systolic.h"
#include "quant/int8_gemm.h"
#include "tensor/rng.h"

namespace itask::accel {
namespace {

std::vector<int8_t> random_int8(int64_t count, Rng& rng) {
  std::vector<int8_t> out(static_cast<size_t>(count));
  for (auto& v : out) v = static_cast<int8_t>(rng.randint(-128, 127));
  return out;
}

class FunctionalVsKernel
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(FunctionalVsKernel, NumericallyIdenticalToInt8Gemm) {
  const auto [m, k, n, zp] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 131 + k * 17 + n));
  const auto a = random_int8(m * k, rng);
  const auto w = random_int8(n * k, rng);
  std::vector<int32_t> expected(static_cast<size_t>(m * n));
  quant::int8_gemm_bt(a, zp, w, expected, m, k, n);

  for (int64_t pe : {4, 8, 16}) {
    FunctionalArrayConfig cfg;
    cfg.rows = pe;
    cfg.cols = pe;
    const FunctionalSystolicArray array(cfg);
    const FunctionalResult result = array.gemm_bt(a, zp, w, m, k, n);
    ASSERT_EQ(result.acc.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(result.acc[i], expected[i])
          << "pe=" << pe << " element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FunctionalVsKernel,
    ::testing::Values(std::make_tuple(1, 1, 1, 0),
                      std::make_tuple(3, 5, 7, 0),
                      std::make_tuple(10, 16, 16, 4),
                      std::make_tuple(10, 40, 120, -7),
                      std::make_tuple(25, 17, 9, 12),
                      std::make_tuple(4, 64, 3, -128),
                      std::make_tuple(16, 16, 16, 127)));

TEST(FunctionalArray, CycleCountMatchesAnalyticComputeModel) {
  // The analytic model's compute term is tiles * (m + rows + cols - 2);
  // the clocked simulation must agree exactly.
  Rng rng(9);
  for (const auto& [m, k, n] :
       {std::tuple<int64_t, int64_t, int64_t>{10, 40, 120},
        std::tuple<int64_t, int64_t, int64_t>{25, 64, 40},
        std::tuple<int64_t, int64_t, int64_t>{9, 48, 40}}) {
    const auto a = random_int8(m * k, rng);
    const auto w = random_int8(n * k, rng);
    FunctionalArrayConfig fcfg;
    fcfg.rows = 16;
    fcfg.cols = 16;
    const FunctionalResult fr =
        FunctionalSystolicArray(fcfg).gemm_bt(a, 0, w, m, k, n);

    SystolicConfig scfg;
    scfg.rows = 16;
    scfg.cols = 16;
    vit::GemmOp op;
    op.m = m;
    op.k = k;
    op.n = n;
    const GemmTiming timing = SystolicArray(scfg).simulate_gemm(op);
    EXPECT_EQ(fr.cycles, timing.compute_cycles)
        << "m=" << m << " k=" << k << " n=" << n;
    EXPECT_EQ(fr.tiles, timing.tiles);
  }
}

TEST(FunctionalArray, ZeroPointFeedHandlesPadding) {
  // With a nonzero activation zero point, padded lanes (k beyond the real
  // dimension, streamed rows beyond m) must contribute exactly zero.
  Rng rng(11);
  const int64_t m = 3, k = 5, n = 2;  // deliberately far from PE multiples
  const auto a = random_int8(m * k, rng);
  const auto w = random_int8(n * k, rng);
  std::vector<int32_t> expected(static_cast<size_t>(m * n));
  quant::int8_gemm_bt(a, 100, w, expected, m, k, n);
  FunctionalArrayConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  const FunctionalResult result =
      FunctionalSystolicArray(cfg).gemm_bt(a, 100, w, m, k, n);
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(result.acc[i], expected[i]);
}

TEST(FunctionalArray, WeightLoadsCountPhysicalRegisters) {
  Rng rng(13);
  const auto a = random_int8(4 * 20, rng);
  const auto w = random_int8(10 * 20, rng);
  FunctionalArrayConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const FunctionalResult r =
      FunctionalSystolicArray(cfg).gemm_bt(a, 0, w, 4, 20, 10);
  // ceil(20/8) * ceil(10/8) = 3 * 2 = 6 tiles, 64 registers each.
  EXPECT_EQ(r.tiles, 6);
  EXPECT_EQ(r.weight_loads, 6 * 64);
}

TEST(FunctionalArray, BadSizesThrow) {
  const FunctionalSystolicArray array;
  std::vector<int8_t> a(6), w(6);
  EXPECT_THROW(array.gemm_bt(a, 0, w, 2, 4, 2), std::invalid_argument);
  FunctionalArrayConfig bad;
  bad.rows = 0;
  EXPECT_THROW(FunctionalSystolicArray{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace itask::accel
