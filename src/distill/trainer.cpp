#include "distill/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tensor/ops.h"

namespace itask::distill {

namespace {

/// Masked MSE: loss = sum(mask * (pred - target)^2) / max(1, sum(mask)).
nn::LossResult masked_mse(const Tensor& pred, const Tensor& target,
                          const Tensor& mask) {
  ITASK_CHECK(pred.shape() == target.shape() && pred.shape() == mask.shape(),
              "masked_mse: shape mismatch");
  Tensor grad(pred.shape());
  auto p = pred.data();
  auto t = target.data();
  auto m = mask.data();
  auto g = grad.data();
  double denom = 0.0;
  for (float v : mask.data()) denom += v;
  denom = std::max(denom, 1.0);
  const float inv = static_cast<float>(1.0 / denom);
  double loss = 0.0;
  for (int64_t i = 0; i < pred.numel(); ++i) {
    const float d = (p[i] - t[i]) * m[i];
    loss += static_cast<double>(d) * d;
    g[i] = 2.0f * d * inv;
  }
  return {static_cast<float>(loss) * inv, std::move(grad)};
}

}  // namespace

StepLosses supervised_losses(const vit::VitOutput& output,
                             const data::Batch& batch,
                             const TrainerOptions& options,
                             vit::VitOutputGrads& grads) {
  StepLosses losses;
  {
    auto res = nn::bce_with_logits(output.objectness, batch.objectness);
    losses.objectness = options.w_objectness * res.value;
    grads.objectness = ops::mul_scalar(res.grad, options.w_objectness);
  }
  {
    auto res = nn::softmax_cross_entropy(output.class_logits,
                                         batch.cell_class);
    losses.classification = options.w_class * res.value;
    grads.class_logits = ops::mul_scalar(res.grad, options.w_class);
  }
  {
    auto res = nn::bce_with_logits(output.attr_logits, batch.attributes,
                                   &batch.attr_mask);
    losses.attributes = options.w_attributes * res.value;
    grads.attr_logits = ops::mul_scalar(res.grad, options.w_attributes);
  }
  {
    auto res = masked_mse(output.box_deltas, batch.boxes, batch.box_mask);
    losses.box = options.w_box * res.value;
    grads.box_deltas = ops::mul_scalar(res.grad, options.w_box);
  }
  if (options.w_relevance > 0.0f) {
    auto res = nn::bce_with_logits(output.relevance, batch.relevance);
    losses.relevance = options.w_relevance * res.value;
    grads.relevance = ops::mul_scalar(res.grad, options.w_relevance);
  }
  return losses;
}

Trainer::Trainer(vit::VitModel& model, TrainerOptions options)
    : model_(model),
      options_(options),
      optimizer_(model.parameters(), options.lr, 0.9f, 0.999f, 1e-8f,
                 options.weight_decay),
      rng_(options.seed) {}

StepLosses Trainer::step(const data::Dataset& dataset,
                         std::span<const int64_t> indices,
                         const data::TaskSpec* task) {
  const data::Batch batch = dataset.make_batch(indices, task);
  model_.zero_grad();
  const vit::VitOutput output = model_.forward(batch.images);
  vit::VitOutputGrads grads;
  const StepLosses losses =
      supervised_losses(output, batch, options_, grads);
  model_.backward(grads);
  nn::clip_grad_norm(model_.parameters(), options_.grad_clip);
  optimizer_.step();
  return losses;
}

namespace {

/// Linear warmup followed by cosine decay to lr*min_fraction.
float scheduled_lr(float base_lr, float min_fraction, float warmup_fraction,
                   int64_t step, int64_t total_steps) {
  const float warmup_steps = std::max(
      1.0f, warmup_fraction * static_cast<float>(total_steps));
  const float s = static_cast<float>(step);
  if (s < warmup_steps) return base_lr * (s + 1.0f) / warmup_steps;
  const float progress =
      (s - warmup_steps) /
      std::max(1.0f, static_cast<float>(total_steps) - warmup_steps);
  const float cosine = 0.5f * (1.0f + std::cos(3.14159265f * progress));
  return base_lr * (min_fraction + (1.0f - min_fraction) * cosine);
}

}  // namespace

TrainStats Trainer::fit(const data::Dataset& dataset,
                        const data::TaskSpec* task) {
  ITASK_CHECK(dataset.size() > 0, "Trainer: empty dataset");
  TrainStats stats;
  std::vector<int64_t> order = dataset.all_indices();
  const int64_t steps_per_epoch = static_cast<int64_t>(
      (order.size() + options_.batch_size - 1) / options_.batch_size);
  const int64_t total_steps = steps_per_epoch * options_.epochs;
  bool first_recorded = false;
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(options_.batch_size)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(options_.batch_size));
      optimizer_.set_lr(scheduled_lr(options_.lr, options_.lr_min_fraction,
                                     options_.warmup_fraction, stats.steps,
                                     total_steps));
      const StepLosses losses =
          step(dataset,
               std::span<const int64_t>(order.data() + start, end - start),
               task);
      if (!first_recorded) {
        stats.first = losses;
        first_recorded = true;
      }
      stats.last = losses;
      ++stats.steps;
      if (options_.verbose && stats.steps % 20 == 0) {
        std::printf("  [trainer] step %lld total=%.4f obj=%.4f cls=%.4f "
                    "attr=%.4f box=%.4f rel=%.4f\n",
                    static_cast<long long>(stats.steps),
                    static_cast<double>(losses.total()),
                    static_cast<double>(losses.objectness),
                    static_cast<double>(losses.classification),
                    static_cast<double>(losses.attributes),
                    static_cast<double>(losses.box),
                    static_cast<double>(losses.relevance));
      }
    }
  }
  return stats;
}

}  // namespace itask::distill
