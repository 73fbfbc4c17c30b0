#include "quant/qat.h"

namespace itask::quant {

namespace {

/// Trainable 2-D weight matrices (the tensors the INT8 runtime quantizes).
bool is_quantized_weight(const nn::Parameter& p) {
  return p.value.ndim() == 2 && p.name == "weight";
}

}  // namespace

distill::FitStats qat_finetune(vit::VitModel& model,
                               const data::Dataset& dataset,
                               const QatOptions& options,
                               const data::TaskSpec* task) {
  distill::LossWeights losses = options.losses;
  if (task == nullptr) losses.relevance = 0.0f;
  std::vector<nn::Parameter*> weights;
  for (nn::Parameter* p : model.parameters())
    if (is_quantized_weight(*p)) weights.push_back(p);

  std::vector<Tensor> masters;  // FP32 snapshots during the fake-quant pass
  const auto step = [&](const data::Batch& batch, std::span<const int64_t>) {
    // 1. Snapshot masters and drop weights onto the integer grid.
    masters.clear();
    for (nn::Parameter* p : weights) {
      masters.push_back(p->value);
      fake_quantize_weight(p->value, options.quant.granularity,
                           options.quant.weight_bits);
    }
    // 2. Forward/backward through the deployment-time weights.
    const distill::StepLosses step_losses =
        distill::supervised_step(model, batch, losses);
    // 3. Restore masters; STE applies the gradients to them unmodified.
    for (size_t i = 0; i < weights.size(); ++i)
      weights[i]->value = std::move(masters[i]);
    return step_losses;
  };
  // No warmup and a decay floor of 1 make the schedule a constant lr.
  return distill::fit(model, dataset, task,
                      {options.epochs, options.batch_size, options.lr,
                       /*lr_min_fraction=*/1.0f, /*warmup_fraction=*/0.0f,
                       /*weight_decay=*/0.0f, options.grad_clip,
                       options.seed},
                      step);
}

}  // namespace itask::quant
