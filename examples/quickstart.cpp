// Quickstart: the full iTask lifecycle on one task.
//
//   1. pretrain a teacher ViT on a task-agnostic synthetic corpus,
//   2. define a mission from natural language (LLM-oracle → knowledge graph),
//   3. build both configurations (distilled task-specific student and
//      INT8 quantized multi-task model),
//   4. run detection with both and compare, and
//   5. ask the situational-adaptability policy which to deploy.
//
// Build: cmake --build build --target quickstart && ./build/examples/quickstart
#include <cstdio>

#include "core/itask.h"

using namespace itask;

int main() {
  std::printf("== iTask quickstart ==\n");

  core::FrameworkOptions options;
  options.seed = 42;
  // Example-sized budgets: ~15 s end-to-end. The benches use the full ones.
  options.corpus_size = 512;
  options.teacher_training.epochs = 20;
  options.distillation.epochs = 20;
  options.multitask_distillation.epochs = 20;
  core::Framework fw(options);

  std::printf("[1/5] pretraining teacher (%s) on %lld synthetic scenes…\n",
              options.teacher_config.to_string().c_str(),
              static_cast<long long>(options.corpus_size));
  fw.pretrain_teacher();

  const data::TaskSpec& spec = data::task_by_id(1);  // surgical_sharps
  std::printf("[2/5] defining task \"%s\"\n       \"%s\"\n", spec.name.c_str(),
              spec.description.c_str());
  core::TaskHandle task = fw.define_task(spec);
  std::printf("%s", task.graph.to_text().c_str());

  std::printf("[3/5] distilling task-specific student (%s)…\n",
              options.student_config.to_string().c_str());
  const auto stats = fw.prepare_task_specific(task);
  std::printf("       %lld steps, loss %.3f → %.3f\n",
              static_cast<long long>(stats.steps),
              static_cast<double>(stats.first.total()),
              static_cast<double>(stats.last.total()));

  std::printf("[4/5] building INT8 quantized multi-task model…\n");
  fw.prepare_quantized();
  std::printf("       footprint: %.3f MB (vs %.3f MB FP32 student/task)\n",
              fw.quantized_model_mb(), fw.task_specific_model_mb());

  // Evaluate both configurations on a fresh evaluation set.
  Rng eval_rng(2026);
  const data::SceneGenerator generator(options.generator);
  const data::Dataset eval =
      data::Dataset::generate(generator, 64, eval_rng);
  const auto r_ts =
      fw.evaluate(eval, task, core::ConfigKind::kTaskSpecific);
  const auto r_q =
      fw.evaluate(eval, task, core::ConfigKind::kQuantizedMultiTask);
  std::printf("[5/5] evaluation on 64 unseen scenes (task: %s)\n",
              spec.name.c_str());
  std::printf("       task-specific : F1 %.3f  (P %.3f, R %.3f, AP %.3f)\n",
              static_cast<double>(r_ts.f1), static_cast<double>(r_ts.precision),
              static_cast<double>(r_ts.recall),
              static_cast<double>(r_ts.average_precision));
  std::printf("       quantized     : F1 %.3f  (P %.3f, R %.3f, AP %.3f)\n",
              static_cast<double>(r_q.f1), static_cast<double>(r_q.precision),
              static_cast<double>(r_q.recall),
              static_cast<double>(r_q.average_precision));

  // Situational adaptability.
  core::SituationProfile profile;
  profile.expected_task_count = 1;
  profile.tasks_known_ahead = true;
  profile.accuracy_critical = true;
  const auto decision = fw.choose_configuration(profile);
  std::printf("policy(single known mission) → %s\n  rationale: %s\n",
              core::config_kind_name(decision.config),
              decision.rationale.c_str());

  core::SituationProfile fleet;
  fleet.expected_task_count = 12;
  fleet.tasks_known_ahead = false;
  const auto decision2 = fw.choose_configuration(fleet);
  std::printf("policy(12 unknown missions) → %s\n  rationale: %s\n",
              core::config_kind_name(decision2.config),
              decision2.rationale.c_str());
  return 0;
}
