// Post-training-quantized ViT runtime.
//
// Built in one step from a trained VitModel and a batch of calibration
// images: the model's own served graph (VitModel::infer, vit/graph.h) runs
// the images in FP32 while a sink feeds each linear layer's input to that
// layer's calibrator; each weight is then quantized and packed once. The
// result runs the same graph with INT8 weight GEMMs (symmetric weights,
// calibrated asymmetric activations) while keeping LayerNorm / softmax /
// GELU in FP32 — the standard edge recipe. Attention's activation×activation
// products also stay FP32 (they carry no static weights to stage on the
// accelerator). Each linear's epilogue (bias, GELU, residual add) runs in
// its dequant pass, and the five heads that read the patch features run as
// one QHeadBank: one activation quantize, one GEMM.
//
// Usage: QuantizedVit qvit(model, calibration_images, options);
//        qvit.forward(images) runs the INT8 path.
#pragma once

#include <array>
#include <vector>

#include "quant/calibrate.h"
#include "quant/int8_gemm.h"
#include "vit/graph.h"

namespace itask::quant {

struct QuantOptions {
  WeightGranularity granularity = WeightGranularity::kPerChannel;
  CalibMethod method = CalibMethod::kMinMax;
  /// Integer grid widths (8 = standard deployment; 4/6 for the low-bit
  /// extension, see bench A4). Values are stored in int8 regardless.
  int weight_bits = 8;
  int activation_bits = 8;
};

/// One quantized linear layer: its weight quantized into the packed panels
/// forward() runs on (the weight's only stored form) and its input range.
class QLinearLayer {
 public:
  QLinearLayer() = default;
  /// weight [out, in], bias [out] (or empty); `act` is the input range a
  /// calibrator measured, put on the options.activation_bits grid.
  QLinearLayer(const Tensor& weight, Tensor bias, const QuantParams& act,
               const QuantOptions& options);

  /// INT8 path, `ep` fused into the dequant pass.
  Tensor forward(const Tensor& x, const ops::Epilogue& ep = {}) const;

  const QuantizedWeight& quantized_weight() const { return qweight_; }
  const QuantParams& activation_params() const { return act_; }

 private:
  QuantizedWeight qweight_;
  Tensor bias_;  // may be empty
  QuantParams act_;
};

/// The graph's head bank (vit::kHeadKeys) quantized as one layer: one
/// input range, because every head reads the same tensor; each head's
/// weight quantized on its own grid (its own scales and bias); their rows
/// stacked into one packed weight, so forward() quantizes the input once
/// and runs one GEMM. Bit-identical to running each head as a QLinearLayer.
class QHeadBank {
 public:
  QHeadBank() = default;
  /// weights[h] is [out_h, in] and biases[h] [out_h] (or empty); `act` as
  /// for QLinearLayer.
  QHeadBank(const std::array<Tensor, vit::kHeadSlots>& weights,
            std::array<Tensor, vit::kHeadSlots> biases,
            const QuantParams& act, const QuantOptions& options);

  vit::HeadOutputs forward(const Tensor& x,
                           const vit::HeadEpilogues& eps) const;

  /// The stacked weight: every head's rows, in slot order.
  const QuantizedWeight& quantized_weight() const { return qweight_; }

 private:
  QuantizedWeight qweight_;
  std::array<int64_t, vit::kHeadSlots> cols_{};  // each head's out_h
  std::array<Tensor, vit::kHeadSlots> biases_;
  QuantParams act_;
};

/// The full quantized detection-ViT.
class QuantizedVit {
 public:
  /// Calibrates on `calibration_images` [B, channels, image_size,
  /// image_size] through `model`'s served graph — one calibrator per linear
  /// layer, one for the head bank — and quantizes (and packs) every weight.
  QuantizedVit(const vit::VitModel& model, const Tensor& calibration_images,
               QuantOptions options = {});

  /// INT8 inference. Output mirrors VitModel::forward. Const and
  /// cache-free, so many threads may run it on one model concurrently.
  vit::VitOutput forward(const Tensor& images) const;

  const vit::ViTConfig& config() const { return config_; }
  const QuantOptions& options() const { return options_; }

  /// Total INT8 weight bytes (model footprint after quantization).
  int64_t quantized_weight_bytes() const;

 private:
  using Block = vit::VitBlock<Tensor, QLinearLayer>;
  using Layers =
      vit::VitLayers<Tensor, QLinearLayer, std::vector<Block>, QHeadBank>;

  vit::ViTConfig config_;
  QuantOptions options_;
  Layers layers_;
};

}  // namespace itask::quant
