#include "quant/qat.h"

#include <algorithm>

#include "nn/optimizer.h"

namespace itask::quant {

namespace {

/// Trainable 2-D weight matrices (the tensors the INT8 runtime quantizes).
bool is_quantized_weight(const nn::Parameter& p) {
  return p.value.ndim() == 2 && p.name == "weight";
}

}  // namespace

QatStats qat_finetune(vit::VitModel& model, const data::Dataset& dataset,
                      const QatOptions& options, const data::TaskSpec* task) {
  ITASK_CHECK(dataset.size() > 0, "qat_finetune: empty dataset");
  const auto params = model.parameters();
  nn::Adam optimizer(params, options.lr);
  Rng rng(options.seed);
  QatStats stats;

  distill::TrainerOptions loss_options = options.losses;
  if (task == nullptr) loss_options.w_relevance = 0.0f;

  std::vector<int64_t> order = dataset.all_indices();
  std::vector<Tensor> masters;  // FP32 snapshots during the fake-quant pass
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(options.batch_size)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(options.batch_size));
      const data::Batch batch = dataset.make_batch(
          std::span<const int64_t>(order.data() + start, end - start), task);

      // 1. Snapshot masters and drop weights onto the integer grid.
      masters.clear();
      for (nn::Parameter* p : params) {
        if (!is_quantized_weight(*p)) continue;
        masters.push_back(p->value);
        fake_quantize_weight(p->value, options.quant.granularity,
                             options.quant.weight_bits);
      }
      // 2. Forward/backward through the deployment-time weights.
      model.zero_grad();
      const vit::VitOutput out = model.forward(batch.images);
      vit::VitOutputGrads grads;
      const distill::StepLosses losses =
          distill::supervised_losses(out, batch, loss_options, grads);
      model.backward(grads);
      // 3. Restore masters; STE applies the gradients to them unmodified.
      size_t mi = 0;
      for (nn::Parameter* p : params) {
        if (!is_quantized_weight(*p)) continue;
        p->value = masters[mi++];
      }
      nn::clip_grad_norm(params, options.grad_clip);
      optimizer.step();

      if (stats.steps == 0) stats.first_total = losses.total();
      stats.last_total = losses.total();
      ++stats.steps;
    }
  }
  return stats;
}

}  // namespace itask::quant
