// A1 — quantization-scheme ablation (DESIGN.md §6.4).
//
// One FP32 multi-task student is quantized six ways (per-tensor / per-channel
// weights × min-max / percentile / entropy activation calibration); each
// variant is evaluated on task detection F1 against the FP32 reference and
// on raw output distortion. Regenerates the recipe-selection table.
#include "bench/bench_util.h"

#include <cmath>

using namespace itask;

int main() {
  bench::print_header("A1 (table): quantization-scheme ablation",
                      "per-channel symmetric weights + calibrated "
                      "activations is the deployed recipe");

  core::FrameworkOptions options = bench::experiment_options(42);
  core::Framework fw(options);
  std::printf("pretraining teacher + FP32 multi-task student…\n");
  fw.pretrain_teacher();
  fw.prepare_quantized();  // also trains the FP32 multi-task student
  const vit::VitModel& fp32 = fw.multitask_student();

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

  // Every row is scored the deployed quantized way (KG matching); only the
  // forward changes.
  const auto mean_f1 = [&](const core::ForwardFn& forward) {
    double sum = 0.0;
    for (const auto& task : tasks)
      sum += fw.evaluate(eval, task, core::ConfigKind::kQuantizedMultiTask,
                         forward)
                 .f1;
    return sum / static_cast<double>(tasks.size());
  };

  // FP32 reference rows.
  const double fp32_mean =
      mean_f1([&](const Tensor& img) { return fp32.infer(img); });
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
      const quant::QuantizedVit qvit(fp32, calib_images, qopt);

      const double f1 =
          mean_f1([&](const Tensor& img) { return qvit.forward(img); });

      // Raw distortion: mean |Δ class logit| on the calibration set.
      const vit::VitOutput ref = fp32.infer(calib_images);
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
