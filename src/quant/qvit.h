// Post-training-quantized ViT runtime.
//
// Built from a trained VitModel's state dict, this runs the served layer
// sequence (vit/graph.h) with INT8 weight GEMMs (symmetric weights,
// calibrated asymmetric activations) while keeping LayerNorm / softmax /
// GELU in FP32 — the standard edge recipe. Attention's activation×activation
// products also stay FP32 (they carry no static weights to stage on the
// accelerator). Each linear's epilogue (bias, GELU, residual add) runs in
// its dequant pass, and the five heads that read the patch features run as
// one QHeadBank: one activation quantize, one GEMM.
//
// Usage: construct → run calibrate() over representative images → finalize()
// → forward() runs the INT8 path.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "quant/calibrate.h"
#include "quant/int8_gemm.h"
#include "tensor/io.h"
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

/// One quantized linear layer plus its calibration state.
class QLinearLayer {
 public:
  QLinearLayer() = default;
  QLinearLayer(Tensor weight, Tensor bias, const QuantOptions& options);

  /// FP32 reference path (ops::apply_epilogue on x·Wᵀ + b); observes
  /// activations when a calibrator is active.
  Tensor forward_calibrating(const Tensor& x, const ops::Epilogue& ep = {});

  /// INT8 path (requires finalize()), `ep` fused into the dequant pass.
  Tensor forward(const Tensor& x, const ops::Epilogue& ep = {}) const;

  /// Freezes the activation range and quantizes the weight into the packed
  /// panels forward() runs on — the weight's only serving form.
  void finalize(const QuantOptions& options);
  bool finalized() const { return finalized_; }

  const QuantizedWeight& quantized_weight() const { return qweight_; }
  const QuantParams& activation_params() const { return act_; }

 private:
  Tensor fp32_weight_;  // [out, in]
  Tensor bias_;         // may be empty
  std::unique_ptr<Calibrator> calibrator_;
  QuantizedWeight qweight_;
  QuantParams act_;
  bool finalized_ = false;
};

/// The graph's head bank (vit::kHeadKeys) quantized as one layer: one
/// calibrator, because every head observes the same tensor; each head's
/// weight quantized on its own grid (its own scales and bias); their rows
/// stacked into one packed weight, so forward() quantizes the input once
/// and runs one GEMM. Bit-identical to running each head as a QLinearLayer.
class QHeadBank {
 public:
  QHeadBank() = default;
  /// weights[h] is [out_h, in] and biases[h] [out_h] (or empty).
  QHeadBank(std::array<Tensor, vit::kHeadSlots> weights,
            std::array<Tensor, vit::kHeadSlots> biases,
            const QuantOptions& options);

  /// FP32 reference path per head; observes `x` once.
  vit::HeadOutputs forward_calibrating(const Tensor& x,
                                       const vit::HeadEpilogues& eps);

  /// INT8 path (requires finalize()).
  vit::HeadOutputs forward(const Tensor& x,
                           const vit::HeadEpilogues& eps) const;

  /// Freezes the shared activation range and quantizes each head's weight,
  /// stacking the rows into the packed panels forward() runs on.
  void finalize(const QuantOptions& options);

  /// The stacked weight: every head's rows, in slot order.
  const QuantizedWeight& quantized_weight() const { return qweight_; }

 private:
  std::array<Tensor, vit::kHeadSlots> fp32_weights_, biases_;
  std::unique_ptr<Calibrator> calibrator_;
  QuantizedWeight qweight_;
  QuantParams act_;
  bool finalized_ = false;
};

/// The full quantized detection-ViT.
class QuantizedVit {
 public:
  QuantizedVit(const vit::ViTConfig& config, const io::StateDict& state,
               QuantOptions options = {});

  /// Convenience: snapshot a live model.
  static QuantizedVit from_model(vit::VitModel& model,
                                 QuantOptions options = {});

  /// Runs the FP32 path over calibration images, recording activations.
  void calibrate(const Tensor& images);

  /// Freezes activation ranges and quantizes (and packs) all weights.
  void finalize();

  /// INT8 inference. Output mirrors VitModel::forward. Const and cache-free
  /// once finalized, so many threads may run it on one model concurrently.
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
  bool finalized_ = false;
};

}  // namespace itask::quant
