// Layer tests: forward correctness against hand-computed values and
// numerical gradient checks for every hand-written backward pass.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/gradcheck.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "reference_ops.h"
#include "same_bits.h"
#include "tensor/ops.h"

namespace itask::nn {
namespace {

TEST(Linear, ForwardHandCase) {
  Rng rng(1);
  Linear layer(2, 3, rng);
  layer.weight().value = Tensor({3, 2}, {1, 0, 0, 1, 1, 1});
  layer.bias()->value = Tensor({3}, {0.5f, -0.5f, 0.0f});
  Tensor x({1, 2}, {2.0f, 3.0f});
  Tensor y = layer.forward(x);
  EXPECT_TRUE(y.allclose(Tensor({1, 3}, {2.5f, 2.5f, 5.0f})));
}

TEST(Linear, HandlesLeadingDims) {
  Rng rng(2);
  Linear layer(4, 2, rng);
  Tensor x = rng.randn({3, 5, 4});
  Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 5, 2}));
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(3);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor({1, 2})), std::invalid_argument);
}

// A backward consumes its forward's cache: a second backward without a new
// forward throws, and a new forward makes backward work again.
template <typename Layer>
void expect_backward_consumes_cache(Layer& layer, const Tensor& x,
                                    const Tensor& g) {
  (void)layer.forward(x);
  (void)layer.backward(g);
  EXPECT_THROW(layer.backward(g), std::invalid_argument);
  (void)layer.forward(x);
  EXPECT_NO_THROW(layer.backward(g));
}

TEST(Linear, SecondBackwardThrows) {
  Rng rng(41);
  Linear layer(3, 2, rng);
  expect_backward_consumes_cache(layer, rng.randn({4, 3}), rng.randn({4, 2}));
}

// An empty gradient (a head nothing trains this step) drops the cache and
// changes no gradient.
TEST(Linear, EmptyGradientDropsTheCache) {
  Rng rng(42);
  Linear layer(3, 2, rng);
  layer.zero_grad();
  (void)layer.forward(rng.randn({4, 3}));
  EXPECT_TRUE(layer.backward(Tensor()).empty());
  for (Parameter* p : layer.parameters())
    for (float v : p->grad.data()) EXPECT_EQ(v, 0.0f) << p->name;
  EXPECT_THROW(layer.backward(rng.randn({4, 2})), std::invalid_argument);
}

// A gradient buffer exists only while something trains the parameter: a new
// layer owns none, an optimizer allocates them zeroed and releases them when
// destroyed, and zero_grad() or a backward allocates a missing one for
// direct callers (gradient checks).
TEST(Parameter, GradientLivesWhileAnOptimizerTrains) {
  Rng rng(43);
  Linear layer(3, 2, rng);
  const auto expect_no_buffers = [&] {
    for (Parameter* p : layer.parameters())
      EXPECT_TRUE(p->grad.empty()) << p->name;
  };
  const auto expect_zeroed_buffers = [&] {
    for (Parameter* p : layer.parameters()) {
      ASSERT_EQ(p->grad.shape(), p->value.shape()) << p->name;
      for (float v : p->grad.data()) EXPECT_EQ(v, 0.0f) << p->name;
    }
  };
  expect_no_buffers();
  {
    Adam adam(layer.parameters(), 0.1f);
    expect_zeroed_buffers();
    (void)layer.forward(rng.randn({4, 3}));
    (void)layer.backward(rng.randn({4, 2}));
    adam.step();
  }
  expect_no_buffers();
  layer.zero_grad();
  expect_zeroed_buffers();
  {
    Sgd sgd(layer.parameters(), 0.1f);
  }
  expect_no_buffers();
  (void)layer.forward(rng.randn({4, 3}));
  (void)layer.backward(rng.randn({4, 2}));
  for (Parameter* p : layer.parameters())
    EXPECT_EQ(p->grad.shape(), p->value.shape()) << p->name;
}

TEST(Linear, GradCheck) {
  Rng rng(4);
  Linear layer(3, 4, rng);
  const Tensor x = rng.randn({5, 3});
  auto loss_fn = [&]() {
    Tensor y = layer.forward(x);
    // loss = sum(y^2) — its gradient wrt y is 2y.
    float loss = 0.0f;
    for (float v : y.data()) loss += v * v;
    layer.backward(ops::mul_scalar(y, 2.0f));
    return loss;
  };
  const auto result = check_gradients(layer, loss_fn);
  EXPECT_TRUE(result.ok) << "worst: " << result.worst_parameter
                         << " rel err " << result.max_rel_error;
}

// Linear's training pass runs one GEMM per product straight between the
// caller's tensors; it must round as the composed tensor ops do (reshape to
// [rows, in], matmul_bt, add_rowwise; matmul_at and sum_to_lastdim added
// into the grads, matmul for dx), gradients accumulating over calls. 300
// rows put more than one kKC slab into the dW reduction.
TEST(Linear, ForwardBackwardMatchesComposedBitForBit) {
  Rng rng(31);
  for (bool bias : {true, false})
    for (const Shape& shape : {Shape{300, 13}, Shape{4, 7, 13}, Shape{13}}) {
      SCOPED_TRACE(::testing::Message()
                   << "bias " << bias << " " << shape_to_string(shape));
      Linear layer(13, 21, rng, bias);
      layer.zero_grad();  // a new layer owns no gradient buffer
      const Tensor& w = layer.weight().value;
      Tensor want_dw = layer.weight().grad;
      Tensor want_db = bias ? layer.bias()->grad : Tensor();
      for (int call = 0; call < 2; ++call) {
        const Tensor x = rng.randn(shape);
        const int64_t rows = x.numel() / 13;
        Shape out_shape = shape;
        out_shape.back() = 21;
        const Tensor x2d = x.reshape({rows, 13});
        Tensor want_y = refops::matmul_bt(x2d, w);
        if (bias)
          want_y = refops::add_rowwise(want_y, layer.bias()->value);
        EXPECT_TRUE(same_bits(layer.forward(x), want_y.reshape(out_shape)));
        const Tensor g = rng.randn(out_shape);
        const Tensor g2d = g.reshape({rows, 21});
        ops::add_inplace(want_dw, refops::matmul_at(g2d, x2d));
        if (bias) ops::add_inplace(want_db, refops::sum_to_lastdim(g2d));
        EXPECT_TRUE(
            same_bits(layer.backward(g), ops::matmul(g2d, w).reshape(shape)));
        EXPECT_TRUE(same_bits(layer.weight().grad, want_dw));
        if (bias) {
          EXPECT_TRUE(same_bits(layer.bias()->grad, want_db));
        }
      }
    }
}

TEST(Linear, NoBiasVariant) {
  Rng rng(5);
  Linear layer(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(layer.bias(), nullptr);
  EXPECT_EQ(layer.parameters().size(), 1u);
}

TEST(LayerNorm, NormalisesRows) {
  LayerNorm ln(4);
  Tensor x({2, 4}, {1, 2, 3, 4, -2, 0, 2, 8});
  Tensor y = ln.forward(x);
  for (int64_t r = 0; r < 2; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int64_t c = 0; c < 4; ++c) mean += y.at({r, c});
    mean /= 4.0f;
    for (int64_t c = 0; c < 4; ++c) {
      const float d = y.at({r, c}) - mean;
      var += d * d;
    }
    var /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(LayerNorm, AffineParamsApply) {
  LayerNorm ln(2);
  auto params = ln.parameters();
  ASSERT_EQ(params.size(), 2u);
  params[0]->value.fill(2.0f);  // gamma
  params[1]->value.fill(1.0f);  // beta
  Tensor x({1, 2}, {-1.0f, 1.0f});
  Tensor y = ln.forward(x);
  // xhat = (-1, 1) (unit variance via eps-free path), y = 2*xhat + 1.
  EXPECT_NEAR(y[0], -1.0f, 1e-2f);
  EXPECT_NEAR(y[1], 3.0f, 1e-2f);
}

TEST(LayerNorm, GradCheck) {
  Rng rng(6);
  LayerNorm ln(5);
  const Tensor x = rng.randn({4, 5});
  const Tensor target = rng.randn({4, 5});
  auto loss_fn = [&]() {
    Tensor y = ln.forward(x);
    auto res = mse(y, target);
    ln.backward(res.grad);
    return res.value;
  };
  const auto result = check_gradients(ln, loss_fn, 1e-3f, 3e-2f);
  EXPECT_TRUE(result.ok) << result.worst_parameter << " "
                         << result.max_rel_error;
}

// layernorm_affine (the served form) and LayerNorm::forward (training) run
// one arithmetic, so every output bit must match: at any row count (a lane
// form takes rows eight at a time and leaves a tail), at widths with and
// without a tail of their own, and at ±0, an all-zero row, magnitudes whose
// squares overflow or underflow, and a row holding a NaN.
TEST(LayerNorm, AffineMatchesForwardBitForBit) {
  Rng rng(17);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t c : {3, 7, 13, 40, 64}) {
    LayerNorm ln(c);
    ln.load_state_dict({{"gamma", rng.randn({c})}, {"beta", rng.randn({c})}});
    for (int64_t rows = 1; rows <= 17; ++rows) {
      SCOPED_TRACE(::testing::Message() << "rows " << rows << " c " << c);
      Tensor x = rng.randn({rows, c});
      for (int64_t i = 0; i < x.numel(); i += 5) x[i] = 0.0f;
      for (int64_t i = 2; i < x.numel(); i += 7) x[i] = -0.0f;
      for (int64_t r = 1; r < rows; r += 4)
        for (int64_t j = 0; j < c; ++j) x[r * c + j] *= 1e19f;
      for (int64_t r = 2; r < rows; r += 4)
        for (int64_t j = 0; j < c; ++j) x[r * c + j] *= 1e-22f;
      if (rows > 3)
        for (int64_t j = 0; j < c; ++j) x[3 * c + j] = 0.0f;
      if (rows > 5) x[5 * c + c / 2] = nan;
      const Tensor want = ln.forward(x);
      const Tensor got = layernorm_affine(x, ln.gamma(), ln.beta());
      ASSERT_EQ(got.shape(), want.shape());
      for (int64_t i = 0; i < got.numel(); ++i) {
        const float g = got[i], w = want[i];
        if (std::isnan(g) && std::isnan(w)) continue;
        EXPECT_EQ(std::memcmp(&g, &w, sizeof g), 0)
            << "element " << i << ": " << g << " vs " << w;
      }
    }
  }
}

TEST(LayerNorm, SecondBackwardThrows) {
  Rng rng(44);
  LayerNorm ln(5);
  expect_backward_consumes_cache(ln, rng.randn({3, 5}), rng.randn({3, 5}));
}

/// LayerNorm's row arithmetic as layernorm.cpp defines it, every rounding
/// explicit: xhat = (x − mean)·rstd and y = fma(xhat, γ, β).
void reference_layernorm_row(const float* x, const float* g, const float* b,
                             int64_t c, float* xhat, float* y) {
  float mean = 0.0f;
  for (int64_t j = 0; j < c; ++j) mean += x[j];
  mean /= static_cast<float>(c);
  float var = 0.0f;
  for (int64_t j = 0; j < c; ++j) {
    const float d = x[j] - mean;
    var = j < c / 4 * 4 ? var + ops::rounded(d * d) : std::fma(d, d, var);
  }
  var /= static_cast<float>(c);
  const float rstd = 1.0f / std::sqrt(var + 1e-5f);
  for (int64_t j = 0; j < c; ++j) {
    xhat[j] = ops::rounded((x[j] - mean) * rstd);
    y[j] = std::fma(xhat[j], g[j], b[j]);
  }
}

// The training forward normalises eight rows per lane group and keeps the
// normalised rows and their 1/std for backward. At row counts that leave a
// partial group, every row must come out as the scalar row arithmetic makes
// it, the kept rows too (a gradient of ones sums them, exactly, into dγ),
// and backward must give each row the dx it gets alone, accumulating the
// same dγ and dβ.
TEST(LayerNorm, TrainingLanesMatchRowByRowBitForBit) {
  Rng rng(19);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t c : {3, 7, 13, 40, 64}) {
    const Tensor gamma = rng.randn({c}), beta = rng.randn({c});
    for (int64_t rows : {1, 3, 7, 9, 12, 17, 23}) {
      SCOPED_TRACE(::testing::Message() << "rows " << rows << " c " << c);
      Tensor x = rng.randn({rows, c});
      for (int64_t i = 0; i < x.numel(); i += 5) x[i] = 0.0f;
      for (int64_t i = 2; i < x.numel(); i += 7) x[i] = -0.0f;
      for (int64_t r = 1; r < rows; r += 4)
        for (int64_t j = 0; j < c; ++j) x[r * c + j] *= 1e19f;
      for (int64_t r = 2; r < rows; r += 4)
        for (int64_t j = 0; j < c; ++j) x[r * c + j] *= 1e-22f;
      if (rows > 3)
        for (int64_t j = 0; j < c; ++j) x[3 * c + j] = 0.0f;
      if (rows > 5) x[5 * c + c / 2] = nan;
      const Tensor g = rng.randn({rows, c});
      LayerNorm whole(c), alone(c);
      for (LayerNorm* ln : {&whole, &alone}) {
        ln->load_state_dict({{"gamma", gamma}, {"beta", beta}});
        ln->zero_grad();
      }
      const Tensor y = whole.forward(x);
      const Tensor dx = whole.backward(g);
      Tensor want_xhat({rows, c}), want_y({rows, c});
      for (int64_t r = 0; r < rows; ++r)
        reference_layernorm_row(x.data().data() + r * c, gamma.data().data(),
                                beta.data().data(), c,
                                want_xhat.data().data() + r * c,
                                want_y.data().data() + r * c);
      EXPECT_TRUE(same_bits(y, want_y));
      Tensor xhat_sum({c});
      for (int64_t r = 0; r < rows; ++r)
        for (int64_t j = 0; j < c; ++j) xhat_sum[j] += want_xhat[r * c + j];
      LayerNorm probe(c);
      probe.load_state_dict({{"gamma", gamma}, {"beta", beta}});
      probe.zero_grad();
      (void)probe.forward(x);
      (void)probe.backward(Tensor({rows, c}, 1.0f));
      EXPECT_TRUE(same_bits(probe.parameters()[0]->grad, xhat_sum));
      for (int64_t r = 0; r < rows; ++r) {
        SCOPED_TRACE(::testing::Message() << "row " << r);
        const Tensor yr = alone.forward(x.index(r).reshape({1, c}));
        EXPECT_TRUE(same_bits(yr, y.index(r).reshape({1, c})));
        const Tensor dxr = alone.backward(g.index(r).reshape({1, c}));
        EXPECT_TRUE(same_bits(dxr, dx.index(r).reshape({1, c})));
      }
      EXPECT_TRUE(same_bits(alone.parameters()[0]->grad,
                            whole.parameters()[0]->grad));
      EXPECT_TRUE(same_bits(alone.parameters()[1]->grad,
                            whole.parameters()[1]->grad));
    }
  }
}

TEST(Activations, GeluLayerMatchesOp) {
  Gelu gelu;
  Rng rng(7);
  Tensor x = rng.randn({3, 3});
  EXPECT_TRUE(gelu.forward(x).allclose(ops::gelu(x)));
  Tensor g = rng.randn({3, 3});
  EXPECT_TRUE(gelu.backward(g).allclose(ops::gelu_grad(x, g)));
}

TEST(Activations, GeluSecondBackwardThrows) {
  Gelu gelu;
  Rng rng(45);
  expect_backward_consumes_cache(gelu, rng.randn({3, 3}), rng.randn({3, 3}));
}

TEST(Optimizer, SgdStepDirection) {
  Rng rng(9);
  Linear layer(2, 2, rng);
  layer.weight().value.fill(1.0f);
  Sgd sgd(layer.parameters(), /*lr=*/0.1f);  // allocates the gradients
  layer.weight().grad.fill(0.5f);
  sgd.step();
  for (float v : layer.weight().value.data()) EXPECT_NEAR(v, 0.95f, 1e-6f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Rng rng(10);
  Linear layer(1, 1, rng, false);
  layer.weight().value.fill(0.0f);
  Sgd sgd(layer.parameters(), 0.1f, /*momentum=*/0.9f);
  layer.weight().grad.fill(1.0f);
  sgd.step();  // v=1, w=-0.1
  layer.weight().grad.fill(1.0f);
  sgd.step();  // v=1.9, w=-0.29
  EXPECT_NEAR(layer.weight().value[0], -0.29f, 1e-5f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimise f(w) = (w - 3)^2 with Adam.
  Rng rng(11);
  Linear layer(1, 1, rng, false);
  layer.weight().value.fill(0.0f);
  Adam adam(layer.parameters(), 0.1f);
  for (int i = 0; i < 300; ++i) {
    const float w = layer.weight().value[0];
    layer.weight().grad.fill(2.0f * (w - 3.0f));
    adam.step();
  }
  EXPECT_NEAR(layer.weight().value[0], 3.0f, 0.05f);
}

// Adam's 8-lane form must round as its scalar form, written with explicit
// fmas: at every tail length, with and without weight decay, for gradients
// of ±0, tiny ones whose square underflows and huge ones whose overflows.
TEST(Optimizer, AdamLanesMatchScalarBitForBit) {
  const float lr = 3e-3f, b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  for (float wd : {0.0f, 0.05f}) {
    SCOPED_TRACE(::testing::Message() << "wd " << wd);
    Rng rng(13);
    std::vector<std::unique_ptr<Parameter>> owned;
    std::vector<Parameter*> params;
    for (int64_t n = 1; n <= 35; ++n) {
      owned.push_back(std::make_unique<Parameter>("p", rng.randn({n})));
      params.push_back(owned.back().get());
    }
    std::vector<Tensor> w, m, v;
    for (Parameter* p : params) {
      w.push_back(p->value);
      m.emplace_back(p->value.shape());
      v.emplace_back(p->value.shape());
    }
    Adam adam(params, lr, b1, b2, eps, wd);
    for (int t = 1; t <= 4; ++t) {
      const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
      for (size_t i = 0; i < params.size(); ++i) {
        Tensor& g = params[i]->grad;
        g = rng.randn(g.shape());
        for (int64_t j = 0; j < g.numel(); j += 3)
          g[j] = (j % 2) ? -0.0f : 0.0f;
        for (int64_t j = 1; j < g.numel(); j += 7) g[j] *= 1e-30f;
        for (int64_t j = 4; j < g.numel(); j += 9) g[j] *= 1e25f;
        for (int64_t j = 0; j < g.numel(); ++j) {
          m[i][j] = std::fma(b1, m[i][j], (1.0f - b1) * g[j]);
          v[i][j] = std::fma(b2, v[i][j], ((1.0f - b2) * g[j]) * g[j]);
          const float q = (m[i][j] / bc1) / (std::sqrt(v[i][j] / bc2) + eps);
          w[i][j] = std::fma(-lr, std::fma(wd, w[i][j], q), w[i][j]);
        }
      }
      adam.step();
      for (size_t i = 0; i < params.size(); ++i)
        EXPECT_TRUE(same_bits(params[i]->value, w[i]))
            << "size " << i + 1 << " step " << t;
    }
  }
}

TEST(Optimizer, ZeroGradClears) {
  Rng rng(12);
  Linear layer(2, 2, rng);
  Sgd sgd(layer.parameters(), 0.1f);
  layer.weight().grad.fill(5.0f);
  sgd.zero_grad();
  for (float v : layer.weight().grad.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Optimizer, ClipGradNorm) {
  Rng rng(13);
  Linear layer(1, 2, rng, false);
  layer.weight().grad = Tensor({2, 1}, {3.0f, 4.0f});  // norm 5
  const float norm = clip_grad_norm(layer.parameters(), 1.0f);
  EXPECT_NEAR(norm, 5.0f, 1e-5f);
  EXPECT_NEAR(refops::l2_norm(layer.weight().grad), 1.0f, 1e-5f);
  // Below the threshold: untouched.
  layer.weight().grad = Tensor({2, 1}, {0.3f, 0.4f});
  clip_grad_norm(layer.parameters(), 1.0f);
  EXPECT_NEAR(refops::l2_norm(layer.weight().grad), 0.5f, 1e-5f);
}

TEST(Module, StateDictRoundTripThroughLoad) {
  Rng rng(14);
  Linear a(3, 2, rng), b(3, 2, rng);
  EXPECT_FALSE(a.weight().value.allclose(b.weight().value));
  b.load_state_dict(a.state_dict());
  EXPECT_TRUE(a.weight().value.allclose(b.weight().value, 0.0f));
}

TEST(Module, LoadMissingKeyThrows) {
  Rng rng(15);
  Linear layer(2, 2, rng);
  io::StateDict empty;
  EXPECT_THROW(layer.load_state_dict(empty), std::invalid_argument);
}

TEST(Module, ParameterCount) {
  Rng rng(16);
  Linear layer(3, 4, rng);
  EXPECT_EQ(layer.parameter_count(), 3 * 4 + 4);
}

}  // namespace
}  // namespace itask::nn
