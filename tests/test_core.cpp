// Core framework tests: the adaptability policy, task definition via the
// oracle, lifecycle enforcement, and a reduced-budget end-to-end integration
// run exercising both configurations.
#include <gtest/gtest.h>

#include "core/itask.h"

namespace itask::core {
namespace {

TEST(Policy, UnknownTasksForceQuantized) {
  SituationProfile p;
  p.tasks_known_ahead = false;
  const PolicyDecision d = choose_configuration(p, 0.1, 0.05);
  EXPECT_EQ(d.config, ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(d.rationale.empty());
}

TEST(Policy, MemoryBudgetForcesQuantized) {
  SituationProfile p;
  p.tasks_known_ahead = true;
  p.expected_task_count = 100;
  p.memory_budget_mb = 1.0;
  const PolicyDecision d = choose_configuration(p, 0.5, 0.1);
  EXPECT_EQ(d.config, ConfigKind::kQuantizedMultiTask);
}

TEST(Policy, SingleKnownAccuracyCriticalTaskGetsSpecific) {
  SituationProfile p;
  p.tasks_known_ahead = true;
  p.expected_task_count = 1;
  p.accuracy_critical = true;
  const PolicyDecision d = choose_configuration(p, 0.1, 0.05);
  EXPECT_EQ(d.config, ConfigKind::kTaskSpecific);
}

TEST(Policy, ManyTasksWithoutAccuracyPressureGetQuantized) {
  SituationProfile p;
  p.tasks_known_ahead = true;
  p.expected_task_count = 6;
  p.accuracy_critical = false;
  p.memory_budget_mb = 100.0;
  const PolicyDecision d = choose_configuration(p, 0.1, 0.05);
  EXPECT_EQ(d.config, ConfigKind::kQuantizedMultiTask);
}

TEST(Policy, KindNames) {
  EXPECT_STREQ(config_kind_name(ConfigKind::kTaskSpecific), "task_specific");
  EXPECT_STREQ(config_kind_name(ConfigKind::kQuantizedMultiTask),
               "quantized_multi_task");
}

FrameworkOptions fast_options() {
  FrameworkOptions o;
  o.corpus_size = 256;
  o.task_corpus_size = 128;
  o.multitask_corpus_size = 128;
  o.calibration_scenes = 8;
  o.teacher_training.epochs = 16;
  o.distillation.epochs = 18;
  o.multitask_distillation.epochs = 18;
  o.seed = 7;
  return o;
}

TEST(Framework, LifecycleEnforced) {
  Framework fw(fast_options());
  const data::TaskSpec& spec = data::task_by_id(1);
  const TaskHandle task = fw.define_task(spec);
  EXPECT_THROW(fw.prepare_task_specific(task), std::invalid_argument);
  EXPECT_THROW(fw.prepare_quantized(), std::invalid_argument);
  Tensor image({3, 24, 24});
  EXPECT_THROW(fw.detect(image, task, ConfigKind::kTaskSpecific),
               std::invalid_argument);
}

TEST(Framework, DefineTaskBuildsGraphAndMatcher) {
  Framework fw(fast_options());
  const TaskHandle task = fw.define_task(data::task_by_id(1));
  EXPECT_GT(task.graph.node_count(), 0);
  EXPECT_EQ(task.compiled.positive.numel(), data::kNumAttributes);
  // surgical_sharps requires "sharp".
  EXPECT_GT(task.compiled.positive[data::attr_index(data::Attribute::kSharp)],
            0.0f);
  // 2-hop: scalpel should have high affinity.
  EXPECT_GT(task.compiled.class_affinity[data::class_index(
                data::ObjectClass::kScalpel)],
            0.5f);
}

TEST(Framework, DefineTaskFromText) {
  Framework fw(fast_options());
  const TaskHandle task =
      fw.define_task_from_text("find fragile items to pack");
  EXPECT_GT(
      task.compiled.positive[data::attr_index(data::Attribute::kFragile)],
      0.5f);
}

// One reduced-budget end-to-end run shared by the remaining assertions
// (teacher pretraining is the expensive step; do it once).
class FrameworkEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fw_ = new Framework(fast_options());
    fw_->pretrain_teacher();
    task_ = new TaskHandle(fw_->define_task(data::task_by_id(1)));
    fw_->prepare_task_specific(*task_);
    fw_->prepare_quantized();
    Rng rng(99);
    data::SceneGenerator gen(fw_->options().generator);
    eval_ = new data::Dataset(data::Dataset::generate(gen, 48, rng));
  }
  static void TearDownTestSuite() {
    delete eval_;
    delete task_;
    delete fw_;
  }
  static Framework* fw_;
  static TaskHandle* task_;
  static data::Dataset* eval_;
};

Framework* FrameworkEndToEnd::fw_ = nullptr;
TaskHandle* FrameworkEndToEnd::task_ = nullptr;
data::Dataset* FrameworkEndToEnd::eval_ = nullptr;

TEST_F(FrameworkEndToEnd, TaskSpecificBeatsChance) {
  const auto r = fw_->evaluate(*eval_, *task_, ConfigKind::kTaskSpecific);
  EXPECT_GT(r.f1, 0.25f) << "P=" << r.precision << " R=" << r.recall;
}

TEST_F(FrameworkEndToEnd, QuantizedPathProducesDetections) {
  const auto r =
      fw_->evaluate(*eval_, *task_, ConfigKind::kQuantizedMultiTask);
  EXPECT_GT(r.true_positives + r.false_positives, 0);
  EXPECT_GT(r.f1, 0.05f);
}

void expect_same_eval(const detect::EvalResult& a,
                      const detect::EvalResult& b) {
  EXPECT_EQ(a.true_positives, b.true_positives);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.false_negatives, b.false_negatives);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.f1, b.f1);
  EXPECT_EQ(a.average_precision, b.average_precision);
  EXPECT_EQ(a.mean_iou, b.mean_iou);
}

// The forward overload is the one scoring path: handed the deployed model's
// forward, it reproduces evaluate(dataset, task, config) field for field, and
// the training forward() of the task's student scores the same.
TEST_F(FrameworkEndToEnd, ForwardOverloadMatchesDeployedEvaluate) {
  vit::VitModel& student = fw_->student_for(*task_);
  const quant::QuantizedVit& quantized = fw_->quantized();
  const auto ts = fw_->evaluate(*eval_, *task_, ConfigKind::kTaskSpecific);
  expect_same_eval(
      fw_->evaluate(*eval_, *task_, ConfigKind::kTaskSpecific,
                    [&](const Tensor& img) { return student.infer(img); }),
      ts);
  expect_same_eval(
      fw_->evaluate(*eval_, *task_, ConfigKind::kTaskSpecific,
                    [&](const Tensor& img) { return student.forward(img); }),
      ts);
  expect_same_eval(
      fw_->evaluate(*eval_, *task_, ConfigKind::kQuantizedMultiTask,
                    [&](const Tensor& img) { return quantized.forward(img); }),
      fw_->evaluate(*eval_, *task_, ConfigKind::kQuantizedMultiTask));
}

TEST_F(FrameworkEndToEnd, SingleImageDetectApi) {
  const auto dets =
      fw_->detect(eval_->scene(0).image, *task_, ConfigKind::kTaskSpecific);
  for (const auto& d : dets) {
    EXPECT_GE(d.confidence, 0.0f);
    EXPECT_LE(d.confidence, 1.0f);
    EXPECT_GE(d.cell, 0);
    EXPECT_LT(d.cell, 9);
  }
}

TEST_F(FrameworkEndToEnd, GroundTruthMatchesTaskPredicate) {
  const auto truth = Framework::ground_truth(*eval_, task_->spec);
  ASSERT_EQ(truth.size(), static_cast<size_t>(eval_->size()));
  for (int64_t i = 0; i < eval_->size(); ++i) {
    ASSERT_EQ(truth[static_cast<size_t>(i)].size(),
              eval_->scene(i).objects.size());
    for (size_t j = 0; j < truth[static_cast<size_t>(i)].size(); ++j) {
      EXPECT_EQ(truth[static_cast<size_t>(i)][j].task_relevant,
                task_->spec.is_relevant(eval_->scene(i).objects[j].attributes));
    }
  }
}

TEST_F(FrameworkEndToEnd, ModelFootprints) {
  // INT8 multi-task model must be smaller than the FP32 per-task student.
  EXPECT_LT(fw_->quantized_model_mb(), fw_->task_specific_model_mb());
  EXPECT_GT(fw_->quantized_model_mb(), 0.0);
}

TEST_F(FrameworkEndToEnd, PolicyUsesRealFootprints) {
  SituationProfile p;
  p.tasks_known_ahead = true;
  p.expected_task_count = 1;
  EXPECT_EQ(fw_->choose_configuration(p).config, ConfigKind::kTaskSpecific);
  p.expected_task_count = 1000;
  p.memory_budget_mb = 0.5;
  EXPECT_EQ(fw_->choose_configuration(p).config,
            ConfigKind::kQuantizedMultiTask);
}

TEST_F(FrameworkEndToEnd, DoublePretrainThrows) {
  EXPECT_THROW(fw_->pretrain_teacher(), std::invalid_argument);
}

}  // namespace
}  // namespace itask::core
