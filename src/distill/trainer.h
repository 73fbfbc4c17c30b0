// The one mini-batch fit loop of the detection ViT, the supervised head
// losses, and supervised training — the first of the loop's three
// configurations (distillation in distiller.h, QAT in quant/qat.h).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/loss.h"
#include "vit/model.h"

namespace itask::distill {

/// Per-head supervised loss weights.
struct LossWeights {
  float objectness = 1.0f;
  float classification = 1.0f;
  float attributes = 1.5f;
  float box = 2.5f;
  float relevance = 0.0f;  // > 0 only when training a task-specific model
};

struct TrainerOptions {
  int64_t epochs = 6;
  int64_t batch_size = 16;
  float lr = 3e-3f;
  float lr_min_fraction = 0.05f;  // cosine-decay floor as a fraction of lr
  float warmup_fraction = 0.05f;  // fraction of steps spent in linear warmup
  float weight_decay = 1e-4f;
  float grad_clip = 5.0f;
  LossWeights losses = {};
  uint64_t seed = 7;
};

/// One step's weighted losses; `kd` and `feature` are distillation's.
struct StepLosses {
  float objectness = 0.0f;
  float classification = 0.0f;
  float attributes = 0.0f;
  float box = 0.0f;
  float relevance = 0.0f;
  float kd = 0.0f;
  float feature = 0.0f;
  float total() const {
    return objectness + classification + attributes + box + relevance + kd +
           feature;
  }
};

struct FitStats {
  int64_t steps = 0;
  StepLosses first;
  StepLosses last;
};

/// Computes all supervised head losses for a batch and fills the gradient
/// struct (weighted). The relevance loss runs when weights.relevance > 0
/// (the batch then needs relevance targets).
StepLosses supervised_losses(const vit::VitOutput& output,
                             const data::Batch& batch,
                             const LossWeights& weights,
                             vit::VitOutputGrads& grads);

/// Forward, supervised losses and backward of `model` on one batch.
StepLosses supervised_step(vit::VitModel& model, const data::Batch& batch,
                           const LossWeights& weights);

/// What fit() needs of a configuration's options.
struct FitOptions {
  int64_t epochs;
  int64_t batch_size;
  float lr;
  float lr_min_fraction;
  float warmup_fraction;
  float weight_decay;
  float grad_clip;
  uint64_t seed;
};

/// A configuration's forward, losses and backward on one batch (`ids` are
/// its dataset indices), into gradients fit() has zeroed.
using StepFn = std::function<StepLosses(const data::Batch& batch,
                                        std::span<const int64_t> ids)>;

/// The one mini-batch loop. Each epoch shuffles the dataset (an Rng seeded
/// with options.seed) and walks it in batches; each step sets the linear-
/// warmup, cosine-decay rate, zeroes gradients, runs `step`, clips the
/// model's gradients and takes an Adam step over the model's parameters
/// plus `loss_params` (parameters a loss owns, which are not clipped). The
/// optimizer lives for the call, so no gradient buffer outlives it.
FitStats fit(vit::VitModel& model, const data::Dataset& dataset,
             const data::TaskSpec* task, const FitOptions& options,
             const StepFn& step,
             const std::vector<nn::Parameter*>& loss_params = {});

/// Supervised training. When `task` is non-null the batches carry its
/// relevance targets (enable via options.losses.relevance).
FitStats train(vit::VitModel& model, const data::Dataset& dataset,
               const TrainerOptions& options,
               const data::TaskSpec* task = nullptr);

}  // namespace itask::distill
