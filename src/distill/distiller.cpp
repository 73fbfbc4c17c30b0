#include "distill/distiller.h"

#include <algorithm>
#include <optional>

#include "tensor/ops.h"

namespace itask::distill {

namespace {

/// The teacher outputs distillation reads.
constexpr Tensor vit::VitOutput::*kTeacherFields[] = {
    &vit::VitOutput::objectness, &vit::VitOutput::class_logits,
    &vit::VitOutput::attr_logits, &vit::VitOutput::box_deltas,
    &vit::VitOutput::features};

/// `shape` with its leading (batch) dimension set to `rows`.
Shape with_rows(Shape shape, int64_t rows) {
  shape[0] = rows;
  return shape;
}

/// The teacher is frozen during distillation, so its outputs for every
/// scene are computed once up front, into one [N, ...] tensor per field,
/// instead of once per epoch — this is the dominant cost of distillation
/// otherwise (the teacher is the big model). They come from the served
/// graph (infer), which caches nothing for backward.
vit::VitOutput precompute_teacher(const vit::VitModel& teacher,
                                  const data::Dataset& dataset) {
  vit::VitOutput all;
  const auto indices = dataset.all_indices();
  constexpr int64_t kChunk = 16;
  for (int64_t start = 0; start < dataset.size(); start += kChunk) {
    const int64_t end = std::min(dataset.size(), start + kChunk);
    const data::Batch batch = dataset.make_batch(std::span<const int64_t>(
        indices.data() + start, static_cast<size_t>(end - start)));
    const vit::VitOutput out = teacher.infer(batch.images);
    for (const auto field : kTeacherFields) {
      const Tensor& part = out.*field;
      Tensor& dst = all.*field;
      if (dst.empty())
        dst = Tensor::uninitialized(with_rows(part.shape(), dataset.size()));
      const int64_t row = part.numel() / part.dim(0);
      std::copy_n(part.data().data(), part.numel(),
                  dst.data().data() + start * row);
    }
  }
  return all;
}

/// Copies the cached teacher rows of a shuffled batch straight into `out`'s
/// batch tensors, allocated only when the batch size changes.
void gather_teacher(const vit::VitOutput& all,
                    std::span<const int64_t> indices, vit::VitOutput& out) {
  const auto b = static_cast<int64_t>(indices.size());
  for (const auto field : kTeacherFields) {
    const Tensor& src = all.*field;
    Tensor& dst = out.*field;
    if (dst.empty() || dst.dim(0) != b)
      dst = Tensor::uninitialized(with_rows(src.shape(), b));
    const int64_t row = src.numel() / src.dim(0);
    for (int64_t k = 0; k < b; ++k)
      std::copy_n(src.data().data() + indices[static_cast<size_t>(k)] * row,
                  row, dst.data().data() + k * row);
  }
}

}  // namespace

FitStats distill(const vit::VitModel& teacher, vit::VitModel& student,
                 const data::Dataset& dataset, const DistillOptions& options,
                 Rng& rng, const data::TaskSpec* task) {
  ITASK_CHECK(teacher.config().tokens() == student.config().tokens(),
              "distill: teacher/student grid mismatch");
  // Projects student features to teacher width for feature distillation.
  std::optional<nn::Linear> feature_proj;
  if (options.gamma_features > 0.0f)
    feature_proj.emplace(student.config().dim, teacher.config().dim, rng);
  const vit::VitOutput teacher_cache = precompute_teacher(teacher, dataset);
  vit::VitOutput t_out;  // the batch's teacher outputs, refilled each step
  const float a = options.alpha_hard;
  const LossWeights hard{a, a, 1.5f * a, 2.5f * a,
                         task != nullptr ? options.w_relevance : 0.0f};

  const auto step = [&](const data::Batch& batch,
                        std::span<const int64_t> ids) {
    gather_teacher(teacher_cache, ids, t_out);
    const vit::VitOutput s_out = student.forward(batch.images);
    vit::VitOutputGrads grads;
    StepLosses losses = supervised_losses(s_out, batch, hard, grads);

    // Logit distillation.
    const float b = options.beta_logits;
    if (b > 0.0f) {
      auto kd_cls =
          nn::kd_kl(s_out.class_logits, t_out.class_logits,
                    options.temperature);
      losses.kd += b * kd_cls.value;
      ops::axpy_inplace(grads.class_logits, b, kd_cls.grad);
      auto kd_obj = nn::mse(s_out.objectness, t_out.objectness);
      losses.kd += 0.5f * b * kd_obj.value;
      ops::axpy_inplace(grads.objectness, 0.5f * b, kd_obj.grad);
      auto kd_attr = nn::mse(s_out.attr_logits, t_out.attr_logits);
      losses.kd += b * kd_attr.value;
      ops::axpy_inplace(grads.attr_logits, b, kd_attr.grad);
      auto kd_box = nn::mse(s_out.box_deltas, t_out.box_deltas);
      losses.kd += b * kd_box.value;
      ops::axpy_inplace(grads.box_deltas, b, kd_box.grad);
    }

    // Feature distillation through the learned projection.
    if (feature_proj) {
      const Tensor projected = feature_proj->forward(s_out.features);
      auto fd = nn::mse(projected, t_out.features);
      losses.feature = options.gamma_features * fd.value;
      grads.features = feature_proj->backward(
          ops::mul_scalar(fd.grad, options.gamma_features));
    }

    student.backward(grads);
    return losses;
  };
  return fit(student, dataset, task,
             {options.epochs, options.batch_size, options.lr,
              options.lr_min_fraction, options.warmup_fraction,
              options.weight_decay, options.grad_clip, options.seed},
             step,
             feature_proj ? feature_proj->parameters()
                          : std::vector<nn::Parameter*>{});
}

}  // namespace itask::distill
