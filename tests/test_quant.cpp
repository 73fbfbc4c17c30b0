// Quantization tests: round-trip error bounds (property sweeps), per-channel
// vs per-tensor, INT8 GEMM vs FP32 reference, calibrators, and the full
// quantized-ViT runtime against its FP32 source model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "composed_attention.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "quant/calibrate.h"
#include "quant/int8_gemm.h"
#include "quant/qvit.h"
#include "reference_ops.h"
#include "tensor/ops.h"

namespace itask::quant {
namespace {

class QuantRoundTrip : public ::testing::TestWithParam<std::pair<float, float>> {};

TEST_P(QuantRoundTrip, ErrorBoundedByHalfScale) {
  const auto [lo, hi] = GetParam();
  const QuantParams p = QuantParams::asymmetric(lo, hi);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const float x = rng.uniform(std::min(lo, 0.0f), std::max(hi, 0.0f));
    const float back = p.dequantize(p.quantize(x));
    EXPECT_LE(std::abs(x - back), 0.5f * p.scale + 1e-6f) << "x=" << x;
  }
}

TEST_P(QuantRoundTrip, ZeroIsExact) {
  const auto [lo, hi] = GetParam();
  const QuantParams p = QuantParams::asymmetric(lo, hi);
  EXPECT_EQ(p.dequantize(p.quantize(0.0f)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, QuantRoundTrip,
    ::testing::Values(std::make_pair(-1.0f, 1.0f), std::make_pair(0.0f, 6.0f),
                      std::make_pair(-3.0f, 0.5f),
                      std::make_pair(-0.01f, 0.01f),
                      std::make_pair(-128.0f, 127.0f)));

TEST(QuantParams, SymmetricHasZeroPointZero) {
  const QuantParams p = QuantParams::symmetric(2.0f);
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_NEAR(p.scale, 2.0f / 127.0f, 1e-6f);
  EXPECT_EQ(p.quantize(2.0f), 127);
  EXPECT_EQ(p.quantize(-2.0f), -127);
  EXPECT_EQ(p.quantize(-3.0f), -128);  // clamped
}

TEST(QuantParams, ClampsOutOfRange) {
  const QuantParams p = QuantParams::asymmetric(0.0f, 1.0f);
  EXPECT_EQ(p.quantize(100.0f), 127);
  EXPECT_EQ(p.quantize(-100.0f), -128);
}

// Every grid the system builds: bit widths 2–8, symmetric and with a nonzero
// zero point; plus power-of-two scales, on which x = (j + 0.5)·scale divides
// back to an exact .5 tie.
std::vector<QuantParams> all_grids() {
  std::vector<QuantParams> grids;
  for (int bits = 2; bits <= 8; ++bits) {
    grids.push_back(QuantParams::symmetric(1.0f, bits));
    grids.push_back(QuantParams::asymmetric(-0.7f, 2.3f, bits));
  }
  grids.push_back({0.25f, 5, -8, 7});
  grids.push_back({0.5f, -3, -128, 127});
  return grids;
}

TEST(QuantParams, SaturatesFarOutOfRange) {
  const float inf = std::numeric_limits<float>::infinity();
  const QuantParams p = QuantParams::symmetric(1.0f);
  EXPECT_EQ(p.quantize(3e7f), 127);
  EXPECT_EQ(p.quantize(-3e7f), -128);
  EXPECT_EQ(p.quantize(1e30f), 127);
  EXPECT_EQ(p.quantize(inf), 127);
  EXPECT_EQ(p.quantize(-inf), -128);
  for (const QuantParams& g : all_grids()) {
    for (const float x : {3e7f, 1e30f, 3e38f, inf})
      EXPECT_EQ(g.quantize(x), g.qmax) << x << " zp " << g.zero_point;
    for (const float x : {-3e7f, -1e30f, -3e38f, -inf})
      EXPECT_EQ(g.quantize(x), g.qmin) << x << " zp " << g.zero_point;
    EXPECT_EQ(g.quantize(std::numeric_limits<float>::quiet_NaN()),
              g.zero_point);
  }
}

// The reference the kernel must match: the lround formula, valid wherever
// |x/scale| < 2³¹ (every input below).
int8_t lround_reference(const QuantParams& p, float x) {
  const int32_t q =
      static_cast<int32_t>(std::lround(x / p.scale)) + p.zero_point;
  return static_cast<int8_t>(std::clamp(q, p.qmin, p.qmax));
}

TEST(QuantizeKernel, MatchesLroundReferenceBitForBit) {
  Rng rng(19);
  for (const QuantParams& p : all_grids()) {
    std::vector<float> xs = {0.0f, -0.0f};
    // Exact .5 ties and their neighbours, in and beyond the grid.
    for (int32_t j = -300; j <= 300; ++j) {
      const float tie = (static_cast<float>(j) + 0.5f) * p.scale;
      xs.push_back(tie);
      xs.push_back(std::nextafter(tie, -INFINITY));
      xs.push_back(std::nextafter(tie, INFINITY));
    }
    // The clamp edges qmin−zp and qmax−zp: at, just inside, just outside.
    for (const int32_t edge : {p.qmin - p.zero_point, p.qmax - p.zero_point})
      for (const float d : {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f}) {
        const float x = (static_cast<float>(edge) + d) * p.scale;
        xs.push_back(x);
        xs.push_back(std::nextafter(x, -INFINITY));
        xs.push_back(std::nextafter(x, INFINITY));
      }
    for (int i = 0; i < 2000; ++i)
      xs.push_back(rng.normal() * 200.0f * p.scale);
    const auto check = [&](size_t start, int64_t len) {
      Tensor t({len});
      for (int64_t i = 0; i < len; ++i)
        t.data()[static_cast<size_t>(i)] = xs[start + static_cast<size_t>(i)];
      std::vector<int8_t> got(static_cast<size_t>(len));
      quantize_tensor_into(t, p, got);
      for (int64_t i = 0; i < len; ++i) {
        const float x = t.data()[static_cast<size_t>(i)];
        ASSERT_EQ(got[static_cast<size_t>(i)], lround_reference(p, x))
            << "x=" << x << " scale=" << p.scale << " zp=" << p.zero_point
            << " len=" << len;
        ASSERT_EQ(p.quantize(x), lround_reference(p, x)) << "x=" << x;
      }
    };
    // Every value through the 8-lane body, then every length 0..17 so each
    // tail length runs, at offsets that shift values across lanes.
    check(0, static_cast<int64_t>(xs.size()));
    for (int64_t len = 0; len <= 17; ++len)
      for (size_t start = 0; start + static_cast<size_t>(len) <= xs.size();
           start += 37)
        check(start, len);
  }
}

TEST(QuantizeWeight, PerChannelNeverWorseThanPerTensor) {
  Rng rng(3);
  // Rows with very different magnitudes — the per-channel win case.
  Tensor w({4, 8});
  for (int64_t r = 0; r < 4; ++r)
    for (int64_t c = 0; c < 8; ++c)
      w.at({r, c}) = rng.normal(0.0f, std::pow(10.0f, static_cast<float>(r) - 2.0f));
  auto mse_of = [&](WeightGranularity g) {
    const QuantizedWeight qw = quantize_weight(w, g);
    double err = 0.0;
    for (int64_t r = 0; r < 4; ++r)
      for (int64_t c = 0; c < 8; ++c) {
        const float back =
            static_cast<float>(qw.data[static_cast<size_t>(r * 8 + c)]) *
            qw.scale_for_row(r);
        const double d = w.at({r, c}) - back;
        err += d * d;
      }
    return err;
  };
  EXPECT_LT(mse_of(WeightGranularity::kPerChannel),
            mse_of(WeightGranularity::kPerTensor));
}

TEST(QuantizeWeight, ScaleCountMatchesGranularity) {
  Rng rng(4);
  Tensor w = rng.randn({5, 3});
  EXPECT_EQ(quantize_weight(w, WeightGranularity::kPerTensor).scales.size(),
            1u);
  EXPECT_EQ(quantize_weight(w, WeightGranularity::kPerChannel).scales.size(),
            5u);
}

TEST(Int8Gemm, MatchesFp32Reference) {
  Rng rng(5);
  const int64_t m = 6, k = 16, n = 4;
  Tensor x = rng.randn({m, k});
  Tensor w = rng.randn({n, k});
  const Tensor ref = refops::matmul_bt(x, w);
  // Quantize and run the INT8 path.
  float lo = 0.0f, hi = 0.0f;
  for (float v : x.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const QuantParams act = QuantParams::asymmetric(lo, hi);
  const QuantizedWeight qw =
      quantize_weight_packed(w, WeightGranularity::kPerChannel);
  const Tensor out = qlinear_forward(x, act, qw, nullptr);
  // Error bound: per output ≈ k × (act quant err × |w| + x × w quant err).
  for (int64_t i = 0; i < ref.numel(); ++i)
    EXPECT_NEAR(out[i], ref[i], 0.25f) << "element " << i;
  // Relative quality: mean abs error well under signal scale.
  float err = 0.0f, mag = 0.0f;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    err += std::abs(out[i] - ref[i]);
    mag += std::abs(ref[i]);
  }
  EXPECT_LT(err / mag, 0.05f);
}

TEST(Int8Gemm, ZeroPointCorrection) {
  // All-positive activations force a non-trivial zero point; the GEMM's
  // zero-point correction must keep results exact for exactly-representable
  // inputs.
  const QuantParams act = QuantParams::asymmetric(0.0f, 255.0f);
  std::vector<int8_t> a = {act.quantize(10.0f), act.quantize(20.0f)};
  std::vector<int8_t> w = {64, -64};
  std::vector<int32_t> acc(1);
  int8_gemm_bt(a, act.zero_point, w, acc, 1, 2, 1);
  // Expected: (q10 - zp)*64 + (q20 - zp)*(-64).
  const int32_t q10 = act.quantize(10.0f), q20 = act.quantize(20.0f);
  EXPECT_EQ(acc[0], (q10 - act.zero_point) * 64 + (q20 - act.zero_point) * -64);
}

TEST(Int8Gemm, SizeMismatchThrows) {
  std::vector<int8_t> a(4), w(4);
  std::vector<int32_t> acc(3);  // wrong
  EXPECT_THROW(int8_gemm_bt(a, 0, w, acc, 2, 2, 2), std::invalid_argument);
}

TEST(Calibrators, MinMaxIsExact) {
  MinMaxCalibrator calib;
  calib.observe(Tensor({3}, {-2.0f, 0.5f, 3.0f}));
  calib.observe(Tensor({2}, {-1.0f, 5.0f}));
  const QuantParams p = calib.params();
  EXPECT_NEAR(p.dequantize(p.quantize(-2.0f)), -2.0f, p.scale);
  EXPECT_NEAR(p.dequantize(p.quantize(5.0f)), 5.0f, p.scale);
}

TEST(Calibrators, FinalizeWithoutObservationsThrows) {
  MinMaxCalibrator m;
  EXPECT_THROW(m.params(), std::invalid_argument);
  PercentileCalibrator p;
  EXPECT_THROW(p.params(), std::invalid_argument);
  EntropyCalibrator e;
  EXPECT_THROW(e.params(), std::invalid_argument);
}

TEST(Calibrators, PercentileClipsOutliers) {
  PercentileCalibrator calib(98.0f);
  Rng rng(6);
  Tensor bulk = rng.rand({2000}, -1.0f, 1.0f);
  bulk[0] = 1000.0f;  // one massive outlier
  calib.observe(bulk);
  const QuantParams p = calib.params();
  // The outlier must not blow up the scale: bulk resolution stays fine.
  EXPECT_LT(p.scale, 0.05f);
  MinMaxCalibrator naive;
  naive.observe(bulk);
  EXPECT_GT(naive.params().scale, 1.0f);  // contrast: min-max suffers
}

TEST(Calibrators, EntropyProducesUsableRange) {
  EntropyCalibrator calib;
  Rng rng(7);
  calib.observe(rng.randn({5000}, 0.0f, 1.0f));
  const QuantParams p = calib.params();
  EXPECT_GT(p.scale, 0.0f);
  // Clip should land somewhere in (0.5σ, 8σ): covers the mass sensibly.
  const float clip = p.scale * 127.5f;
  EXPECT_GT(clip, 0.5f);
  EXPECT_LT(clip, 8.0f);
}

TEST(Calibrators, Factory) {
  EXPECT_NE(make_calibrator(CalibMethod::kMinMax), nullptr);
  EXPECT_NE(make_calibrator(CalibMethod::kPercentile), nullptr);
  EXPECT_NE(make_calibrator(CalibMethod::kEntropy), nullptr);
  EXPECT_STREQ(calib_method_name(CalibMethod::kEntropy), "entropy");
}

TEST(QuantizationMse, SmallForInRangeValues) {
  Rng rng(8);
  Tensor t = rng.rand({1000}, -1.0f, 1.0f);
  const QuantParams p = QuantParams::asymmetric(-1.0f, 1.0f);
  const float mse = quantization_mse(t, p);
  // Uniform quantization noise ≈ scale²/12.
  EXPECT_NEAR(mse, p.scale * p.scale / 12.0f, p.scale * p.scale / 6.0f);
}

// ---- full quantized runtime ------------------------------------------------

vit::ViTConfig small_config() {
  vit::ViTConfig c;
  c.image_size = 8;
  c.patch_size = 4;
  c.dim = 16;
  c.depth = 2;
  c.heads = 2;
  c.num_classes = 5;
  c.num_attributes = 6;
  return c;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

void expect_same_bits(const vit::VitOutput& got, const vit::VitOutput& want) {
  EXPECT_TRUE(same_bits(got.objectness, want.objectness));
  EXPECT_TRUE(same_bits(got.class_logits, want.class_logits));
  EXPECT_TRUE(same_bits(got.attr_logits, want.attr_logits));
  EXPECT_TRUE(same_bits(got.box_deltas, want.box_deltas));
  EXPECT_TRUE(same_bits(got.relevance, want.relevance));
  EXPECT_TRUE(same_bits(got.features, want.features));
}

TEST(QuantizedVit, TracksFp32ModelClosely) {
  Rng rng(9);
  vit::VitModel model(small_config(), rng);
  Tensor images = rng.rand({4, 3, 8, 8});
  const vit::VitOutput ref = model.forward(images);

  const QuantizedVit qvit(model, images);
  const vit::VitOutput out = qvit.forward(images);

  auto close = [](const Tensor& a, const Tensor& b, float tol) {
    float max_err = 0.0f;
    for (int64_t i = 0; i < a.numel(); ++i)
      max_err = std::max(max_err, std::abs(a[i] - b[i]));
    return max_err < tol;
  };
  EXPECT_TRUE(close(out.objectness, ref.objectness, 0.35f));
  EXPECT_TRUE(close(out.class_logits, ref.class_logits, 0.35f));
  EXPECT_TRUE(close(out.attr_logits, ref.attr_logits, 0.35f));
  EXPECT_TRUE(close(out.relevance, ref.relevance, 0.35f));
}

TEST(QuantizedVit, WeightBytesReflectInt8Footprint) {
  Rng rng(11);
  vit::VitModel model(small_config(), rng);
  const QuantizedVit qvit(model, rng.rand({1, 3, 8, 8}));
  // INT8 weights = 1 byte per weight element; compare against the count of
  // weight parameters only (biases/LN/embeddings stay FP32).
  int64_t weight_elems = 0;
  for (const auto& [name, tensor] : model.state_dict())
    if (tensor.ndim() == 2 && name.find("weight") != std::string::npos)
      weight_elems += tensor.numel();
  EXPECT_EQ(qvit.quantized_weight_bytes(), weight_elems);
}

// [1, 3, 4, 16] has the 8×8 image's patch count and patch size, so only an
// explicit geometry check tells it apart; both configurations must reject it.
TEST(ServingGraph, BothConfigurationsRejectWrongImageGeometry) {
  Rng rng(14);
  vit::VitModel model(small_config(), rng);
  const Tensor good = rng.rand({1, 3, 8, 8});
  const Tensor bad = rng.rand({1, 3, 4, 16});
  EXPECT_THROW(model.infer(bad), std::invalid_argument);
  EXPECT_THROW(QuantizedVit(model, bad), std::invalid_argument);
  const QuantizedVit qvit(model, good);
  EXPECT_THROW(qvit.forward(bad), std::invalid_argument);
  EXPECT_NO_THROW(qvit.forward(good));
}

// Calibration reads the FP32 graph through Linear::infer, which runs the
// prepacked kernel once a model is published; the INT8 model built from a
// published model must not differ in a bit.
TEST(QuantizedVit, PrepackedModelQuantizesToTheSameBits) {
  Rng rng(16);
  vit::VitModel model(vit::ViTConfig::student(), rng);
  const vit::ViTConfig& c = model.config();
  const Tensor calib = rng.rand({4, c.channels, c.image_size, c.image_size});
  const Tensor images = rng.rand({3, c.channels, c.image_size, c.image_size});
  const vit::VitOutput unpacked = QuantizedVit(model, calib).forward(images);
  model.prepack_for_serving();
  expect_same_bits(QuantizedVit(model, calib).forward(images), unpacked);
}

class CalibMethodSweep : public ::testing::TestWithParam<CalibMethod> {};

TEST_P(CalibMethodSweep, AllMethodsProduceWorkingRuntime) {
  Rng rng(13);
  vit::VitModel model(small_config(), rng);
  Tensor images = rng.rand({4, 3, 8, 8});
  QuantOptions options;
  options.method = GetParam();
  const QuantizedVit qvit(model, images, options);
  const vit::VitOutput out = qvit.forward(images);
  const vit::VitOutput ref = model.forward(images);
  float err = 0.0f, mag = 0.0f;
  for (int64_t i = 0; i < ref.class_logits.numel(); ++i) {
    err += std::abs(out.class_logits[i] - ref.class_logits[i]);
    mag += std::abs(ref.class_logits[i]);
  }
  EXPECT_LT(err / mag, 0.3f) << calib_method_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Methods, CalibMethodSweep,
                         ::testing::Values(CalibMethod::kMinMax,
                                           CalibMethod::kPercentile,
                                           CalibMethod::kEntropy));


// ---- the served INT8 forward against an unfused per-layer oracle ----------

/// The INT8 forward as separate passes, one per layer: QLinearLayer::forward
/// for each linear, the training LayerNorm::forward, ops::gelu, ops::add and
/// the composed attention. Calibrated on its own, through the same unfused
/// composition in FP32 (refops::matmul_bt + add_rowwise per linear), each
/// linear — each of the six heads too — with its own calibrator.
class PerLayerOracle {
 public:
  PerLayerOracle(const vit::ViTConfig& config, const io::StateDict& state,
                 const Tensor& calibration_images, const QuantOptions& options)
      : config_(config), final_ln_(config.dim) {
    auto load_ln = [&](nn::LayerNorm& ln, const std::string& key) {
      ln.load_state_dict({{"gamma", state.at(key + ".gamma")},
                          {"beta", state.at(key + ".beta")}});
    };
    cls_ = state.at("embed.cls");
    pos_ = state.at("embed.pos");
    for (int64_t i = 0; i < config.depth; ++i) {
      const std::string p = "encoder.block" + std::to_string(i) + ".";
      auto blk = std::make_unique<Block>(config.dim);
      load_ln(blk->ln1, p + "ln1");
      load_ln(blk->ln2, p + "ln2");
      blocks_.push_back(std::move(blk));
    }
    load_ln(final_ln_, "encoder.final_ln");

    std::map<std::string, std::unique_ptr<Calibrator>> calibrators;
    (void)run(calibration_images, [&](const std::string& key, const Tensor& x) {
      std::unique_ptr<Calibrator>& c = calibrators[key];
      if (c == nullptr) c = make_calibrator(options.method);
      c->observe(x);
      const Tensor& w = state.at(key + ".weight");
      Shape out_shape = x.shape();
      out_shape.back() = w.dim(0);
      return refops::add_rowwise(
                 refops::matmul_bt(
                     x.reshape({x.numel() / w.dim(1), w.dim(1)}), w),
                 state.at(key + ".bias"))
          .reshape(std::move(out_shape));
    });
    for (const auto& [key, c] : calibrators)
      linears_.emplace(key, QLinearLayer(state.at(key + ".weight"),
                                         state.at(key + ".bias"), c->params(),
                                         options));
  }

  vit::VitOutput forward(const Tensor& images) {
    return run(images, [&](const std::string& key, const Tensor& x) {
      return linears_.at(key).forward(x);
    });
  }

 private:
  struct Block {
    explicit Block(int64_t dim) : ln1(dim), ln2(dim) {}
    nn::LayerNorm ln1, ln2;
  };

  /// The layer sequence, each linear run as apply(state-dict key, x).
  template <typename Apply>
  vit::VitOutput run(const Tensor& images, Apply apply) {
    Tensor x = nn::assemble_tokens(
        apply("embed.proj", nn::patchify(images, config_.patch_size)), cls_,
        pos_);
    for (size_t i = 0; i < blocks_.size(); ++i) {
      const std::string p = "encoder.block" + std::to_string(i) + ".";
      Block& blk = *blocks_[i];
      const Tensor qkv = apply(p + "attn.qkv", blk.ln1.forward(x));
      const Tensor ctx = composed_attention(qkv, config_.heads).ctx;
      x = ops::add(x, apply(p + "attn.proj", ctx));
      const Tensor hidden = ops::gelu(apply(p + "fc1", blk.ln2.forward(x)));
      x = ops::add(x, apply(p + "fc2", hidden));
    }
    Tensor tokens = final_ln_.forward(x);
    const Tensor patches = nn::patch_tokens(tokens);
    vit::VitOutput out;
    out.objectness = apply("obj_head", patches);
    out.class_logits = apply("cls_head", patches);
    out.attr_logits = apply("attr_head", patches);
    out.box_deltas = apply("box_fc2", ops::gelu(apply("box_fc1", patches)));
    out.relevance = apply("rel_head", patches);
    out.features = std::move(tokens);
    return out;
  }

  vit::ViTConfig config_;
  Tensor cls_, pos_;
  std::vector<std::unique_ptr<Block>> blocks_;
  nn::LayerNorm final_ln_;
  std::map<std::string, QLinearLayer> linears_;  // by state-dict key
};

// QuantizedVit::forward may fuse, bank and vectorise its layers however it
// likes, but every output bit must equal the one-pass-per-layer forward:
// per-channel and per-tensor weights, every bit width and calibrator, at the
// test config (D 16, 2 heads, T 4) and the student (D 40, head dim 10, T 9).
TEST(QuantizedVit, ForwardMatchesPerLayerOracleBitForBit) {
  Rng rng(15);
  for (const vit::ViTConfig& config :
       {small_config(), vit::ViTConfig::student()}) {
    vit::VitModel model(config, rng);
    const io::StateDict state = model.state_dict();
    const Tensor calib =
        rng.randn({4, config.channels, config.image_size, config.image_size});
    for (WeightGranularity granularity :
         {WeightGranularity::kPerChannel, WeightGranularity::kPerTensor})
      for (int bits : {8, 6, 4})
        for (CalibMethod method : {CalibMethod::kMinMax,
                                   CalibMethod::kPercentile,
                                   CalibMethod::kEntropy}) {
          SCOPED_TRACE(::testing::Message()
                       << "D " << config.dim << " per-"
                       << (granularity == WeightGranularity::kPerChannel
                               ? "channel"
                               : "tensor")
                       << " bits " << bits << " " << calib_method_name(method));
          QuantOptions options;
          options.granularity = granularity;
          options.method = method;
          options.weight_bits = bits;
          options.activation_bits = bits;
          const QuantizedVit qvit(model, calib, options);
          PerLayerOracle oracle(config, state, calib, options);
          for (int64_t b : {1, 3, 8}) {
            SCOPED_TRACE(::testing::Message() << "B " << b);
            const Tensor images = rng.rand(
                {b, config.channels, config.image_size, config.image_size});
            expect_same_bits(qvit.forward(images), oracle.forward(images));
          }
        }
  }
}

}  // namespace
}  // namespace itask::quant
