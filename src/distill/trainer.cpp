#include "distill/trainer.h"

#include <algorithm>
#include <cmath>

#include "nn/optimizer.h"
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

/// Linear warmup followed by cosine decay to lr*lr_min_fraction.
float scheduled_lr(const FitOptions& options, int64_t step,
                   int64_t total_steps) {
  const float warmup_steps = std::max(
      1.0f, options.warmup_fraction * static_cast<float>(total_steps));
  const float s = static_cast<float>(step);
  if (s < warmup_steps) return options.lr * (s + 1.0f) / warmup_steps;
  const float progress =
      (s - warmup_steps) /
      std::max(1.0f, static_cast<float>(total_steps) - warmup_steps);
  const float cosine = 0.5f * (1.0f + std::cos(3.14159265f * progress));
  return options.lr * (options.lr_min_fraction +
                       (1.0f - options.lr_min_fraction) * cosine);
}

}  // namespace

StepLosses supervised_losses(const vit::VitOutput& output,
                             const data::Batch& batch,
                             const LossWeights& weights,
                             vit::VitOutputGrads& grads) {
  StepLosses losses;
  {
    auto res = nn::bce_with_logits(output.objectness, batch.objectness);
    losses.objectness = weights.objectness * res.value;
    grads.objectness = ops::mul_scalar(res.grad, weights.objectness);
  }
  {
    auto res = nn::softmax_cross_entropy(output.class_logits,
                                         batch.cell_class);
    losses.classification = weights.classification * res.value;
    grads.class_logits = ops::mul_scalar(res.grad, weights.classification);
  }
  {
    auto res = nn::bce_with_logits(output.attr_logits, batch.attributes,
                                   &batch.attr_mask);
    losses.attributes = weights.attributes * res.value;
    grads.attr_logits = ops::mul_scalar(res.grad, weights.attributes);
  }
  {
    auto res = masked_mse(output.box_deltas, batch.boxes, batch.box_mask);
    losses.box = weights.box * res.value;
    grads.box_deltas = ops::mul_scalar(res.grad, weights.box);
  }
  if (weights.relevance > 0.0f) {
    auto res = nn::bce_with_logits(output.relevance, batch.relevance);
    losses.relevance = weights.relevance * res.value;
    grads.relevance = ops::mul_scalar(res.grad, weights.relevance);
  }
  return losses;
}

StepLosses supervised_step(vit::VitModel& model, const data::Batch& batch,
                           const LossWeights& weights) {
  const vit::VitOutput output = model.forward(batch.images);
  vit::VitOutputGrads grads;
  const StepLosses losses = supervised_losses(output, batch, weights, grads);
  model.backward(grads);
  return losses;
}

FitStats fit(vit::VitModel& model, const data::Dataset& dataset,
             const data::TaskSpec* task, const FitOptions& options,
             const StepFn& step,
             const std::vector<nn::Parameter*>& loss_params) {
  ITASK_CHECK(dataset.size() > 0, "fit: empty dataset");
  ITASK_CHECK(options.batch_size > 0, "fit: batch_size must be positive");
  const std::vector<nn::Parameter*> params = model.parameters();
  std::vector<nn::Parameter*> stepped = params;
  stepped.insert(stepped.end(), loss_params.begin(), loss_params.end());
  nn::Adam optimizer(std::move(stepped), options.lr, 0.9f, 0.999f, 1e-8f,
                     options.weight_decay);
  Rng rng(options.seed);
  std::vector<int64_t> order = dataset.all_indices();
  const auto batch_size = static_cast<size_t>(options.batch_size);
  const auto total_steps = options.epochs *
      static_cast<int64_t>((order.size() + batch_size - 1) / batch_size);
  FitStats stats;
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    for (size_t start = 0; start < order.size(); start += batch_size) {
      const std::span<const int64_t> ids(
          order.data() + start, std::min(batch_size, order.size() - start));
      optimizer.set_lr(scheduled_lr(options, stats.steps, total_steps));
      optimizer.zero_grad();
      const StepLosses losses = step(dataset.make_batch(ids, task), ids);
      nn::clip_grad_norm(params, options.grad_clip);
      optimizer.step();
      if (stats.steps++ == 0) stats.first = losses;
      stats.last = losses;
    }
  }
  return stats;
}

FitStats train(vit::VitModel& model, const data::Dataset& dataset,
               const TrainerOptions& options, const data::TaskSpec* task) {
  return fit(model, dataset, task,
             {options.epochs, options.batch_size, options.lr,
              options.lr_min_fraction, options.warmup_fraction,
              options.weight_decay, options.grad_clip, options.seed},
             [&](const data::Batch& batch, std::span<const int64_t>) {
               return supervised_step(model, batch, options.losses);
             });
}

}  // namespace itask::distill
