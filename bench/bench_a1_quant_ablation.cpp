// A1 — quantization-scheme ablation (DESIGN.md §6.4).
//
// One FP32 multi-task student is quantized six ways (per-tensor / per-channel
// weights × min-max / percentile / entropy activation calibration); each
// variant is evaluated on task detection F1 against the FP32 reference and
// on raw output distortion. Regenerates the recipe-selection table.
#include "bench/bench_util.h"
#include "detect/decoder.h"
#include "detect/nms.h"
#include "kg/matcher.h"
#include "tensor/ops.h"

#include <cmath>

using namespace itask;

namespace {

/// Knowledge-graph inference path shared by the FP32 reference and every
/// quantized variant (mirrors Framework::decode_and_match for the Q config).
template <typename ForwardFn>
detect::EvalResult eval_with(ForwardFn&& forward,
                             const core::FrameworkOptions& options,
                             const data::Dataset& eval,
                             const core::TaskHandle& task) {
  detect::DecoderOptions dec = options.decoder;
  dec.grid = options.generator.grid;
  dec.image_size = options.generator.image_size;
  const kg::TaskMatcher matcher(task.compiled, options.matcher);
  std::vector<std::vector<detect::Detection>> detections;
  const auto indices = eval.all_indices();
  for (int64_t start = 0; start < eval.size(); start += 16) {
    const int64_t end = std::min(eval.size(), start + 16);
    const data::Batch batch = eval.make_batch(std::span<const int64_t>(
        indices.data() + start, static_cast<size_t>(end - start)));
    const vit::VitOutput out = forward(batch.images);
    auto candidates = detect::decode(out, dec);
    for (auto& per_image : candidates) {
      std::vector<detect::Detection> kept;
      for (detect::Detection& d : per_image) {
        if (!matcher.relevant(d.attr_probs, d.class_probs)) continue;
        d.confidence =
            d.objectness * matcher.confidence(d.attr_probs, d.class_probs);
        kept.push_back(std::move(d));
      }
      detections.push_back(detect::nms(std::move(kept), 0.5f));
    }
  }
  return detect::evaluate(detections,
                          core::Framework::ground_truth(eval, task.spec),
                          0.4f);
}

}  // namespace

int main() {
  bench::print_header("A1 (table): quantization-scheme ablation",
                      "per-channel symmetric weights + calibrated "
                      "activations is the deployed recipe");

  core::FrameworkOptions options = bench::experiment_options(42);
  core::Framework fw(options);
  std::printf("pretraining teacher + FP32 multi-task student…\n");
  fw.pretrain_teacher();
  fw.prepare_quantized();  // also trains the FP32 multi-task student
  vit::VitModel& fp32 = fw.multitask_student();

  const data::Dataset eval = bench::make_eval_set(options, 96, 16180);
  Rng calib_rng(4242);
  const data::SceneGenerator gen(options.generator);
  const data::Dataset calib =
      data::Dataset::generate(gen, options.calibration_scenes, calib_rng);
  const auto calib_idx = calib.all_indices();
  const Tensor calib_images = calib.make_batch(calib_idx).images;

  const int64_t task_ids[] = {1, 2, 6};
  std::vector<core::TaskHandle> tasks;
  for (int64_t tid : task_ids) tasks.push_back(fw.define_task(data::task_by_id(tid)));

  // FP32 reference rows.
  double fp32_mean = 0.0;
  for (const auto& task : tasks)
    fp32_mean += eval_with([&](const Tensor& img) { return fp32.forward(img); },
                           options, eval, task)
                     .f1;
  fp32_mean /= static_cast<double>(tasks.size());
  std::printf("\nFP32 reference mean F1 over %zu tasks: %.3f\n\n",
              tasks.size(), fp32_mean);

  std::printf("%-12s %-12s | %8s %8s | %14s\n", "weights", "activations",
              "mean F1", "ΔF1", "logit MAE");
  for (auto gran : {quant::WeightGranularity::kPerChannel,
                    quant::WeightGranularity::kPerTensor}) {
    for (auto method : {quant::CalibMethod::kMinMax,
                        quant::CalibMethod::kPercentile,
                        quant::CalibMethod::kEntropy}) {
      quant::QuantOptions qopt;
      qopt.granularity = gran;
      qopt.method = method;
      quant::QuantizedVit qvit = quant::QuantizedVit::from_model(fp32, qopt);
      qvit.calibrate(calib_images);
      qvit.finalize();

      double f1_sum = 0.0;
      for (const auto& task : tasks)
        f1_sum += eval_with(
                      [&](const Tensor& img) { return qvit.forward(img); },
                      options, eval, task)
                      .f1;
      const double f1 = f1_sum / static_cast<double>(tasks.size());

      // Raw distortion: mean |Δ class logit| on the calibration set.
      const vit::VitOutput ref = fp32.forward(calib_images);
      const vit::VitOutput out = qvit.forward(calib_images);
      double mae = 0.0;
      for (int64_t i = 0; i < ref.class_logits.numel(); ++i)
        mae += std::abs(ref.class_logits[i] - out.class_logits[i]);
      mae /= static_cast<double>(ref.class_logits.numel());

      std::printf("%-12s %-12s | %8.3f %+8.3f | %14.4f\n",
                  gran == quant::WeightGranularity::kPerChannel ? "per-channel"
                                                                : "per-tensor",
                  quant::calib_method_name(method), f1, f1 - fp32_mean, mae);
    }
  }
  bench::print_footer_note(
      "shape: per-channel ≥ per-tensor within ~0.01 F1 (seed noise at this "
      "model scale); the calibrators differ by a few hundredths at most; "
      "the deployed recipe (per-channel, min-max) loses only a small ΔF1 "
      "vs FP32.");
  return 0;
}
