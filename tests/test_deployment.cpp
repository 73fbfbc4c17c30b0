// Deployment persistence: a prepared framework saved to disk and restored
// into a fresh process-equivalent framework must reproduce its detections.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/itask.h"

namespace itask::core {
namespace {

FrameworkOptions tiny_options() {
  FrameworkOptions o;
  o.corpus_size = 128;
  o.task_corpus_size = 64;
  o.multitask_corpus_size = 64;
  o.calibration_scenes = 8;
  o.teacher_training.epochs = 6;
  o.distillation.epochs = 6;
  o.multitask_distillation.epochs = 6;
  o.seed = 3;
  return o;
}

TEST(Deployment, SaveBeforeTrainingThrows) {
  Framework fw(tiny_options());
  EXPECT_THROW(fw.save_deployment("/tmp/itask_deploy_invalid"),
               std::invalid_argument);
}

TEST(Deployment, LoadMissingDirectoryThrows) {
  Framework fw(tiny_options());
  EXPECT_THROW(fw.load_deployment("/tmp/itask_no_such_deployment"),
               std::invalid_argument);
}

TEST(Deployment, RoundTripReproducesDetections) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "itask_deploy_test").string();
  std::filesystem::remove_all(dir);

  const FrameworkOptions options = tiny_options();
  // Prepare, detect, save.
  Framework original(options);
  original.pretrain_teacher();
  TaskHandle task = original.define_task(data::task_by_id(1));
  original.prepare_task_specific(task);
  original.prepare_quantized();

  Rng rng(777);
  const data::SceneGenerator gen(options.generator);
  const data::Scene scene = gen.generate(rng);
  const auto ts_before =
      original.detect(scene.image, task, ConfigKind::kTaskSpecific);
  const auto q_before =
      original.detect(scene.image, task, ConfigKind::kQuantizedMultiTask);
  original.save_deployment(dir);

  // Restore into a fresh framework (same options), re-define the task in
  // the same order so slots line up.
  Framework restored(options);
  restored.load_deployment(dir);
  TaskHandle task2 = restored.define_task(data::task_by_id(1));
  const auto ts_after =
      restored.detect(scene.image, task2, ConfigKind::kTaskSpecific);
  const auto q_after =
      restored.detect(scene.image, task2, ConfigKind::kQuantizedMultiTask);

  // Task-specific path: bit-identical weights → identical detections.
  ASSERT_EQ(ts_after.size(), ts_before.size());
  for (size_t i = 0; i < ts_before.size(); ++i) {
    EXPECT_EQ(ts_after[i].cell, ts_before[i].cell);
    EXPECT_NEAR(ts_after[i].confidence, ts_before[i].confidence, 1e-5f);
    EXPECT_NEAR(ts_after[i].box.cx, ts_before[i].box.cx, 1e-4f);
  }
  // Quantized path: calibration data is regenerated, so activations ranges
  // can differ slightly — demand matching cells, not bit-exact scores.
  ASSERT_EQ(q_after.size(), q_before.size());
  for (size_t i = 0; i < q_before.size(); ++i)
    EXPECT_EQ(q_after[i].cell, q_before[i].cell);

  // Teacher weights restored exactly.
  const auto a = original.teacher().state_dict();
  const auto b = restored.teacher().state_dict();
  for (const auto& [k, v] : a)
    EXPECT_TRUE(b.at(k).allclose(v, 0.0f)) << k;

  std::filesystem::remove_all(dir);
}

/// No parameter of `model` owns a gradient buffer.
::testing::AssertionResult owns_no_gradients(vit::VitModel& model) {
  for (nn::Parameter* p : model.parameters())
    if (!p->grad.empty())
      return ::testing::AssertionFailure() << p->name << " has a gradient";
  return ::testing::AssertionSuccess();
}

// Gradients live only while an optimizer trains: a constructed model, every
// model a prepared deployment holds and every model load_deployment restores
// carry their weights and no gradient buffer.
TEST(Deployment, ModelsOwnNoGradientBuffers) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "itask_deploy_gradients")
          .string();
  std::filesystem::remove_all(dir);
  const FrameworkOptions options = tiny_options();
  Framework prepared(options);
  EXPECT_TRUE(owns_no_gradients(prepared.teacher()));
  prepared.pretrain_teacher();
  TaskHandle task = prepared.define_task(data::task_by_id(1));
  prepared.prepare_task_specific(task);
  prepared.prepare_quantized();
  EXPECT_TRUE(owns_no_gradients(prepared.teacher()));
  EXPECT_TRUE(owns_no_gradients(prepared.student_for(task)));
  EXPECT_TRUE(owns_no_gradients(prepared.multitask_student()));
  prepared.save_deployment(dir);

  Framework restored(options);
  restored.load_deployment(dir);
  TaskHandle task2 = restored.define_task(data::task_by_id(1));
  EXPECT_TRUE(owns_no_gradients(restored.teacher()));
  EXPECT_TRUE(owns_no_gradients(restored.student_for(task2)));
  EXPECT_TRUE(owns_no_gradients(restored.multitask_student()));
  std::filesystem::remove_all(dir);
}

TEST(Deployment, ManifestListsArtifacts) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "itask_deploy_manifest")
          .string();
  std::filesystem::remove_all(dir);
  FrameworkOptions options = tiny_options();
  Framework fw(options);
  fw.pretrain_teacher();
  fw.save_deployment(dir);  // teacher only
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "teacher.itsk"));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "manifest.txt"));
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / "multitask.itsk"));
  // Restores cleanly with just the teacher.
  Framework restored(options);
  restored.load_deployment(dir);
  EXPECT_TRUE(restored.teacher_ready());
  EXPECT_FALSE(restored.quantized_ready());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace itask::core
