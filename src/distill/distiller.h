// Teacher→student knowledge distillation for task-specific models.
//
// The student learns from three signals (all ablated in A2):
//  * hard labels (the supervised losses from trainer.h),
//  * temperature-scaled KL on the teacher's class logits + MSE on the
//    teacher's other head outputs (logit distillation), and
//  * optional feature distillation through a learned projection from
//    student to teacher width.
#pragma once

#include "distill/trainer.h"

namespace itask::distill {

struct DistillOptions {
  int64_t epochs = 8;
  int64_t batch_size = 16;
  float lr = 3e-3f;
  float lr_min_fraction = 0.05f;
  float warmup_fraction = 0.05f;
  float weight_decay = 1e-4f;
  float grad_clip = 5.0f;
  float temperature = 2.0f;
  float alpha_hard = 0.5f;     // weight on supervised (hard-label) losses
  float beta_logits = 1.0f;    // weight on teacher-logit distillation
  float gamma_features = 0.3f; // weight on feature distillation (0 disables)
  float w_relevance = 1.5f;    // hard relevance supervision (task-specific)
  uint64_t seed = 11;
};

/// Distills `teacher` into `student` on `dataset`, optionally specialising
/// for `task` (relevance head supervision + task-focused data is the
/// caller's responsibility). The feature projection's initial weights are
/// the first draw from `rng`.
FitStats distill(const vit::VitModel& teacher, vit::VitModel& student,
                 const data::Dataset& dataset, const DistillOptions& options,
                 Rng& rng, const data::TaskSpec* task = nullptr);

}  // namespace itask::distill
