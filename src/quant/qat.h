// Quantization-aware fine-tuning (the paper's natural low-bit extension,
// benchmarked in A4).
//
// Weight-only QAT with a straight-through estimator: each step, the FP32
// master weights are snapshotted and replaced in place by their fake-
// quantized (quantize→dequantize) images; forward/backward then see exactly
// the deployment-time weights; gradients flow back unmodified (STE) and the
// optimizer updates the restored FP32 masters. After fine-tuning, building a
// QuantizedVit at the same bit width realises the trained behaviour.
#pragma once

#include "data/dataset.h"
#include "distill/trainer.h"
#include "quant/qvit.h"
#include "vit/model.h"

namespace itask::quant {

struct QatOptions {
  QuantOptions quant;          // target grid (granularity + weight_bits)
  int64_t epochs = 6;
  int64_t batch_size = 16;
  float lr = 5e-4f;            // gentle: the model is already trained
  float grad_clip = 5.0f;
  distill::LossWeights losses;  // head-loss weights, as in training
  uint64_t seed = 17;
};

/// Fine-tunes `model` in place so its FP32 weights sit on (near) the target
/// integer grid: distill::fit at a constant rate without weight decay.
/// `task` enables relevance supervision (as in training).
distill::FitStats qat_finetune(vit::VitModel& model,
                               const data::Dataset& dataset,
                               const QatOptions& options,
                               const data::TaskSpec* task = nullptr);

}  // namespace itask::quant
