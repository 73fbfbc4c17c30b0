// Kernel-layer parity tests: the blocked/packed GEMMs (tensor/gemm.h,
// quant int8) against the retained naive reference kernels, across awkward
// shapes — unit dims, primes, tails smaller than the micro-tile, blocks
// larger than one cache slab, empty batches. fp32 comparisons use the
// documented reassociation tolerance (EXPERIMENTS.md K0); int8 must be
// bit-exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "nn/linear.h"
#include "quant/int8_gemm.h"
#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace itask {
namespace {

// |packed − naive| ≤ kFpTol·(1 + |naive|): fp32 reassociation only — the
// kernels do the same multiplies in a different summation order.
constexpr float kFpTol = 2e-5f;

void expect_close(std::span<const float> got, std::span<const float> want,
                  const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = kFpTol * (1.0f + std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol) << label << " element " << i;
  }
}

// Awkward shapes: all-ones, primes, sub-tile tails, exact tile multiples,
// tile+1, and one case crossing every cache-block boundary (KC/MC/NC = 256/
// 128/128, MR×NR = 8×16).
const std::vector<std::tuple<int64_t, int64_t, int64_t>> kShapes = {
    {1, 1, 1},    {1, 17, 1},   {19, 1, 23},  {7, 11, 13},
    {5, 3, 9},    {8, 16, 16},  {16, 32, 48}, {9, 257, 17},
    {130, 300, 130}};

class GemmKernelParity
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(GemmKernelParity, Fp32AllVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  const Tensor a = rng.randn({m, k});
  const Tensor b_kn = rng.randn({k, n});
  const Tensor b_nk = rng.randn({n, k});
  const Tensor a_km = rng.randn({k, m});

  Tensor got({m, n}), want({m, n});
  gemm::gemm_nn(a.data().data(), b_kn.data().data(), got.data().data(), m, k,
                n);
  gemm::reference::gemm_nn(a.data().data(), b_kn.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "nn");

  got.fill(0.0f);
  want.fill(0.0f);
  gemm::gemm_bt(a.data().data(), b_nk.data().data(), got.data().data(), m, k,
                n);
  gemm::reference::gemm_bt(a.data().data(), b_nk.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "bt");

  got.fill(0.0f);
  want.fill(0.0f);
  gemm::gemm_at(a_km.data().data(), b_kn.data().data(), got.data().data(), m,
                k, n);
  gemm::reference::gemm_at(a_km.data().data(), b_kn.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "at");
}

TEST_P(GemmKernelParity, AccumulatesIntoNonzeroC) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m + k + n) + 77);
  const Tensor a = rng.randn({m, k});
  const Tensor b = rng.randn({k, n});
  Tensor got = rng.randn({m, n});
  Tensor want = got;
  gemm::gemm_nn(a.data().data(), b.data().data(), got.data().data(), m, k, n);
  gemm::reference::gemm_nn(a.data().data(), b.data().data(),
                           want.data().data(), m, k, n);
  expect_close(got.data(), want.data(), "accumulate");
}

TEST_P(GemmKernelParity, Int8PackedBitExactVsNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 31 + k * 7 + n) + 5);
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<int8_t> w(static_cast<size_t>(n * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
  const int32_t zp = static_cast<int32_t>(rng.randint(-50, 50));
  std::vector<int32_t> want(static_cast<size_t>(m * n));
  std::vector<int32_t> got(static_cast<size_t>(m * n), -1);
  quant::int8_gemm_bt(a, zp, w, want, m, k, n);
  quant::int8_gemm_bt_prepacked(a, zp, quant::pack_weights_int8(w, n, k),
                                quant::weight_row_sums(w, n, k), got, m);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, GemmKernelParity, ::testing::ValuesIn(kShapes),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param)) + "n" +
             std::to_string(std::get<2>(info.param));
    });

// ---- publish-time weight pre-packing --------------------------------------

class GemmPrepackParity
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

// The prepacked entry builds the same panels in the same order as the
// per-call pack, so fp32 results are bit-identical to gemm_bt (and therefore
// within the K0 reassociation tolerance of the naive reference).
TEST_P(GemmPrepackParity, Fp32BitExactVsPackPerCallAndCloseToReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 131 + k * 17 + n) + 3);
  const Tensor a = rng.randn({m, k});
  const Tensor b_nk = rng.randn({n, k});
  Tensor per_call({m, n}), prepacked({m, n}), naive({m, n});
  gemm::gemm_bt(a.data().data(), b_nk.data().data(), per_call.data().data(),
                m, k, n);
  const gemm::PackedB packed = gemm::pack_weights_bt(b_nk.data().data(), k, n);
  EXPECT_EQ(packed.k, k);
  EXPECT_EQ(packed.n, n);
  gemm::gemm_bt_prepacked(a.data().data(), packed, prepacked.data().data(), m);
  EXPECT_TRUE(prepacked.allclose(per_call, 0.0f)) << "prepacked vs per-call";
  gemm::reference::gemm_bt(a.data().data(), b_nk.data().data(),
                           naive.data().data(), m, k, n);
  expect_close(prepacked.data(), naive.data(), "prepacked vs naive");
}

// One packed weight serves every batch size: the panels are built once and
// reused for m and for a 2m-row batch, each bit-exact vs the naive oracle.
TEST_P(GemmPrepackParity, Int8BitExactVsPackedAndNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 13 + k * 29 + n) + 11);
  std::vector<int8_t> a(static_cast<size_t>(2 * m * k));
  std::vector<int8_t> w(static_cast<size_t>(n * k));
  for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
  for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
  const int32_t zp = static_cast<int32_t>(rng.randint(-50, 50));
  const std::vector<int32_t> sums = quant::weight_row_sums(w, n, k);
  const quant::PackedWeightInt8 pw = quant::pack_weights_int8(w, n, k);
  EXPECT_EQ(pw.k, k);
  EXPECT_EQ(pw.n, n);
  for (const int64_t rows : {m, 2 * m}) {
    const std::span<const int8_t> a_rows(a.data(),
                                         static_cast<size_t>(rows * k));
    std::vector<int32_t> naive(static_cast<size_t>(rows * n));
    std::vector<int32_t> prepacked(static_cast<size_t>(rows * n), -2);
    quant::int8_gemm_bt(a_rows, zp, w, naive, rows, k, n);
    quant::int8_gemm_bt_prepacked(a_rows, zp, pw, sums, prepacked, rows);
    EXPECT_EQ(prepacked, naive) << rows << " rows";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, GemmPrepackParity, ::testing::ValuesIn(kShapes),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param)) + "n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(GemmPrepack, LinearInferUnchangedByPrepack) {
  Rng rng(1234);
  nn::Linear layer(24, 40, rng);
  const Tensor x = rng.randn({5, 3, 24});
  const Tensor before = layer.infer(x);
  EXPECT_FALSE(layer.prepacked());
  layer.prepack_for_serving();
  ASSERT_TRUE(layer.prepacked());
  layer.prepack_for_serving();  // idempotent
  const Tensor after = layer.infer(x);
  // infer() must stay arithmetically identical to forward() — the prepacked
  // kernel is bit-identical, not merely close.
  EXPECT_TRUE(after.allclose(before, 0.0f));
  EXPECT_TRUE(layer.forward(x).allclose(before, 0.0f));
}

// qlinear_forward runs on the panels built when the weight was quantized;
// its output must equal the naive oracle's integer GEMM, dequantized.
TEST(GemmPrepack, QlinearForwardUnchangedByPrepack) {
  Rng rng(77);
  const Tensor w = rng.randn({40, 24});
  const quant::QuantizedWeight qw =
      quant::quantize_weight_packed(w, quant::WeightGranularity::kPerChannel);
  ASSERT_NE(qw.packed, nullptr);
  const Tensor x = rng.randn({9, 24});
  const quant::QuantParams act = quant::QuantParams::asymmetric(-3.0f, 3.0f);
  const Tensor got = quant::qlinear_forward(x, act, qw, nullptr);
  const std::vector<int8_t> qx = quant::quantize_tensor(x, act);
  std::vector<int32_t> acc(9 * 40);
  quant::int8_gemm_bt(qx, act.zero_point, qw.data, acc, 9, 24, 40);
  Tensor want({9, 40});
  for (int64_t r = 0; r < 9; ++r)
    for (int64_t j = 0; j < 40; ++j) {
      const auto i = static_cast<size_t>(r * 40 + j);
      want.at({r, j}) =
          static_cast<float>(acc[i]) * (act.scale * qw.scale_for_row(j));
    }
  EXPECT_TRUE(got.allclose(want, 0.0f));  // int8 path is bit-exact
}

// qlinear_forward's producer quantizes FP32 straight into the A panels; they
// must equal, element for element and padding included, the widening
// producer's panels of quantize_tensor(x, p). Shapes cover odd k, m not a
// multiple of the 8-row panel, m past 128 rows and k past the 256 KC slab.
TEST(Int8Panels, QuantizingProducerMatchesWideningProducer) {
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1},  {3, 7},    {13, 40},   {8, 16},   {10, 48},
      {9, 257}, {88, 160}, {137, 263}, {200, 513}};
  for (const auto& [m, k] : shapes) {
    for (const quant::QuantParams& p :
         {quant::QuantParams::asymmetric(-2.0f, 3.0f),
          quant::QuantParams::asymmetric(-1.0f, 0.5f, 4),
          quant::QuantParams::symmetric(2.5f, 6)}) {
      Rng rng(static_cast<uint64_t>(m * 1009 + k));
      const Tensor x = rng.randn({m, k}, 0.0f, 2.0f);
      const int64_t size = quant::activation_panel_size(m, k);
      ASSERT_GE(size, m * k);
      std::vector<int16_t> fused(static_cast<size_t>(size), 0x5555);
      std::vector<int16_t> widened(static_cast<size_t>(size), -7);
      quant::quantize_activations_packed(x.data(), p, m, k, fused);
      quant::pack_activations_int8(quant::quantize_tensor(x, p), m, k,
                                   widened);
      ASSERT_EQ(fused, widened) << "m" << m << " k" << k << " zp "
                                << p.zero_point;
    }
  }
  std::vector<int16_t> wrong(3);
  EXPECT_THROW(quant::quantize_activations_packed(Tensor({2, 2}).data(),
                                                  quant::QuantParams{}, 2, 2,
                                                  wrong),
               std::invalid_argument);
}

// The fp32 pack panels are ScratchVec scratch: arena-backed under a bound
// ArenaScope, heap otherwise. Where they live never moves a bit of the
// result. A zero-capacity arena spills every panel to its overflow blocks and
// measures what they need (the plan_workspace() probe); an arena of that size
// then serves every panel in place.
TEST(GemmArena, PanelsFromArenaBitIdenticalAndSizedByTheProbe) {
  Rng rng(5);
  const int64_t m = 300, k = 600, n = 300;  // crosses every blocking extent
  // One buffer per operand serves every layout: [M,K] and [K,M] (A), [K,N]
  // and [N,K] (B) hold the same number of floats.
  const Tensor a = rng.randn({m, k});
  const Tensor b = rng.randn({n, k});
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  const gemm::PackedB packed = gemm::pack_weights_bt(bp, k, n);
  const std::vector<std::pair<const char*, std::function<void(float*)>>>
      calls = {
          {"gemm_nn", [&](float* c) { gemm::gemm_nn(ap, bp, c, m, k, n); }},
          {"gemm_bt", [&](float* c) { gemm::gemm_bt(ap, bp, c, m, k, n); }},
          {"gemm_at", [&](float* c) { gemm::gemm_at(ap, bp, c, m, k, n); }},
          {"gemm_bt_prepacked",
           [&](float* c) { gemm::gemm_bt_prepacked(ap, packed, c, m); }},
      };
  const size_t bytes = static_cast<size_t>(m * n) * sizeof(float);
  for (const auto& [name, call] : calls) {
    std::vector<float> heap(static_cast<size_t>(m * n));
    std::vector<float> spilled(heap.size());
    std::vector<float> in_place(heap.size());
    call(heap.data());
    Arena probe(0);
    {
      ArenaScope scope(probe);
      call(spilled.data());
    }
    EXPECT_GT(probe.overflow_allocs(), 0) << name;
    EXPECT_EQ(probe.used(), 0) << name;  // the panels die with the call
    Arena sized(probe.peak());
    {
      ArenaScope scope(sized);
      call(in_place.data());
    }
    EXPECT_EQ(sized.overflow_allocs(), 0) << name;
    EXPECT_EQ(sized.peak(), probe.peak()) << name;
    EXPECT_EQ(std::memcmp(spilled.data(), heap.data(), bytes), 0) << name;
    EXPECT_EQ(std::memcmp(in_place.data(), heap.data(), bytes), 0) << name;
  }
}

TEST(GemmKernel, EmptyBatchAndZeroDims) {
  // Empty batch: [0, m, k] × [0, k, n] → [0, m, n], no work, no crash.
  EXPECT_EQ(ops::bmm(Tensor({0, 3, 4}), Tensor({0, 4, 5})).shape(),
            (Shape{0, 3, 5}));
  EXPECT_EQ(ops::bmm_bt(Tensor({0, 3, 4}), Tensor({0, 5, 4})).shape(),
            (Shape{0, 3, 5}));
  EXPECT_EQ(ops::bmm_at(Tensor({0, 4, 3}), Tensor({0, 4, 5})).shape(),
            (Shape{0, 3, 5}));
  // Zero rows / zero inner dim through the 2-D entry points.
  EXPECT_EQ(ops::matmul(Tensor({0, 4}), Tensor({4, 5})).shape(),
            (Shape{0, 5}));
  Tensor zk = ops::matmul(Tensor({3, 0}), Tensor({0, 5}));
  EXPECT_EQ(zk.shape(), (Shape{3, 5}));
  for (float v : zk.data()) EXPECT_EQ(v, 0.0f);
}

TEST(GemmKernel, BmmFamilyMatchesReferencePerBatch) {
  Rng rng(42);
  const int64_t bb = 3, m = 9, k = 21, n = 12;
  const Tensor a = rng.randn({bb, m, k});
  const Tensor b = rng.randn({bb, k, n});
  const Tensor out = ops::bmm(a, b);
  for (int64_t i = 0; i < bb; ++i) {
    Tensor want({m, n});
    gemm::reference::gemm_nn(a.data().data() + i * m * k,
                             b.data().data() + i * k * n, want.data().data(),
                             m, k, n);
    EXPECT_TRUE(out.index(i).allclose(want, 1e-4f)) << "batch " << i;
  }
}

TEST(GemmKernel, RowSumsTableMatchesOnTheFly) {
  Rng rng(9);
  const Tensor w = rng.randn({7, 13});
  const quant::QuantizedWeight qw =
      quant::quantize_weight(w, quant::WeightGranularity::kPerChannel);
  EXPECT_EQ(qw.row_sums, quant::weight_row_sums(qw.data, qw.out, qw.in));
  // qlinear_forward runs only on the packed form: a weight missing its
  // panels or its row-sum table is rejected, not silently re-derived.
  quant::QuantizedWeight packed =
      quant::quantize_weight_packed(w, quant::WeightGranularity::kPerChannel);
  EXPECT_EQ(packed.row_sums, qw.row_sums);
  const Tensor x = rng.randn({4, 13});
  const quant::QuantParams act = quant::QuantParams::asymmetric(-3.0f, 3.0f);
  EXPECT_NO_THROW(quant::qlinear_forward(x, act, packed, nullptr));
  EXPECT_THROW(quant::qlinear_forward(x, act, qw, nullptr),
               std::invalid_argument);  // bare quantize_weight: no panels
  packed.row_sums.clear();
  EXPECT_THROW(quant::qlinear_forward(x, act, packed, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace itask
