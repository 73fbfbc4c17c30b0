// Training-loop tests: supervised trainer convergence, loss assembly, and
// distillation (student tracks teacher, feature projection, task relevance).
#include <gtest/gtest.h>

#include "distill/distiller.h"
#include "distill/trainer.h"
#include "quant/qat.h"
#include "tensor/ops.h"

namespace itask::distill {
namespace {

data::Dataset tiny_dataset(int64_t n, uint64_t seed) {
  data::GeneratorOptions opt;
  data::SceneGenerator gen(opt);
  Rng rng(seed);
  return data::Dataset::generate(gen, n, rng);
}

vit::ViTConfig tiny_model_config() {
  vit::ViTConfig c;
  c.dim = 16;
  c.depth = 1;
  c.heads = 2;
  return c;
}

/// Training leaves only weights behind: no parameter keeps a gradient
/// buffer, and the last backward consumed every cache, so another backward
/// throws until a new forward.
void expect_only_weights_left(vit::VitModel& model) {
  for (nn::Parameter* p : model.parameters())
    EXPECT_TRUE(p->grad.empty()) << p->name;
  EXPECT_THROW(model.backward({}), std::invalid_argument);
}

/// The fit contract every configuration shares, on N = 12 scenes in
/// batches of 8 (the last one ragged) for two epochs.
struct FitConfig {
  const char* name;
  FitStats (*run)(vit::VitModel& model, const data::Dataset& dataset);
};

void PrintTo(const FitConfig& config, std::ostream* os) { *os << config.name; }

FitStats run_supervised(vit::VitModel& model, const data::Dataset& ds) {
  TrainerOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  return train(model, ds, options);
}

FitStats run_kd(vit::VitModel& student, const data::Dataset& ds) {
  Rng rng(5);
  vit::ViTConfig teacher_cfg = tiny_model_config();
  teacher_cfg.dim = 24;
  vit::VitModel teacher(teacher_cfg, rng);
  DistillOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  const FitStats stats =
      distill(teacher, student, ds, options, rng, &data::task_by_id(1));
  for (nn::Parameter* p : teacher.parameters())
    EXPECT_TRUE(p->grad.empty()) << p->name;
  return stats;
}

FitStats run_qat(vit::VitModel& model, const data::Dataset& ds) {
  quant::QatOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  return quant::qat_finetune(model, ds, options);
}

class FitContract : public ::testing::TestWithParam<FitConfig> {};

TEST_P(FitContract, CountsStepsAndLeavesOnlyWeights) {
  Rng rng(3);
  vit::VitModel model(tiny_model_config(), rng);
  EXPECT_THROW(GetParam().run(model, data::Dataset()), std::invalid_argument);
  const FitStats stats = GetParam().run(model, tiny_dataset(12, 4));
  EXPECT_EQ(stats.steps, 2 * 2);  // epochs × ⌈12 / 8⌉
  expect_only_weights_left(model);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, FitContract,
    ::testing::Values(FitConfig{"supervised", run_supervised},
                      FitConfig{"kd", run_kd}, FitConfig{"qat", run_qat}));

TEST(Trainer, LossDecreases) {
  Rng rng(1);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(32, 2);
  TrainerOptions options;
  options.epochs = 8;
  options.batch_size = 8;
  const FitStats stats = train(model, ds, options);
  EXPECT_GT(stats.steps, 0);
  EXPECT_LT(stats.last.total(), 0.6f * stats.first.total());
}

TEST(Trainer, RelevanceHeadOnlyWhenRequested) {
  Rng rng(3);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(8, 4);
  const data::TaskSpec& task = data::task_by_id(2);
  TrainerOptions options;
  options.epochs = 1;
  options.losses.relevance = 0.0f;
  const FitStats without = train(model, ds, options, &task);
  EXPECT_EQ(without.last.relevance, 0.0f);
  options.losses.relevance = 1.0f;
  vit::VitModel model2(tiny_model_config(), rng);
  const FitStats with = train(model2, ds, options, &task);
  EXPECT_GT(with.last.relevance, 0.0f);
}

TEST(Trainer, EmptyDatasetThrows) {
  Rng rng(5);
  vit::VitModel model(tiny_model_config(), rng);
  EXPECT_THROW(train(model, data::Dataset(), {}), std::invalid_argument);
}

TEST(SupervisedLosses, GradShapesMatchOutputs) {
  Rng rng(6);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(4, 7);
  const auto idx = ds.all_indices();
  const data::Batch batch = ds.make_batch(idx);
  const vit::VitOutput out = model.forward(batch.images);
  LossWeights weights;
  weights.relevance = 1.0f;
  vit::VitOutputGrads grads;
  const StepLosses losses = supervised_losses(out, batch, weights, grads);
  EXPECT_EQ(grads.objectness.shape(), out.objectness.shape());
  EXPECT_EQ(grads.class_logits.shape(), out.class_logits.shape());
  EXPECT_EQ(grads.attr_logits.shape(), out.attr_logits.shape());
  EXPECT_EQ(grads.box_deltas.shape(), out.box_deltas.shape());
  EXPECT_EQ(grads.relevance.shape(), out.relevance.shape());
  EXPECT_GT(losses.total(), 0.0f);
}

TEST(SupervisedLosses, BoxGradMaskedToObjectCells) {
  Rng rng(8);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(2, 9);
  const auto idx = ds.all_indices();
  const data::Batch batch = ds.make_batch(idx);
  const vit::VitOutput out = model.forward(batch.images);
  vit::VitOutputGrads grads;
  supervised_losses(out, batch, {}, grads);
  for (int64_t i = 0; i < grads.box_deltas.numel(); ++i) {
    if (batch.box_mask[i] == 0.0f) {
      EXPECT_EQ(grads.box_deltas[i], 0.0f);
    }
  }
}

TEST(Distiller, StudentApproachesTeacher) {
  Rng rng(10);
  vit::ViTConfig teacher_cfg = tiny_model_config();
  teacher_cfg.dim = 24;
  vit::VitModel teacher(teacher_cfg, rng);
  vit::VitModel student(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(24, 11);

  // Distance of student logits from teacher logits before/after.
  auto distance = [&]() {
    const auto idx = ds.all_indices();
    const data::Batch batch = ds.make_batch(idx);
    const auto t = teacher.forward(batch.images);
    const auto s = student.forward(batch.images);
    return nn::mse(s.class_logits, t.class_logits).value;
  };
  const float before = distance();
  DistillOptions options;
  options.epochs = 10;
  options.batch_size = 8;
  options.alpha_hard = 0.0f;  // isolate the KD signal for this test
  const FitStats stats = distill(teacher, student, ds, options, rng);
  EXPECT_GT(stats.steps, 0);
  EXPECT_LT(distance(), before);
  EXPECT_LT(stats.last.total(), stats.first.total());
}

TEST(Distiller, FeatureProjectionOptional) {
  Rng rng(12);
  vit::VitModel teacher(tiny_model_config(), rng);
  vit::VitModel student(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(8, 13);
  DistillOptions options;
  options.epochs = 1;
  options.gamma_features = 0.0f;  // disabled
  const FitStats stats = distill(teacher, student, ds, options, rng);
  EXPECT_EQ(stats.last.feature, 0.0f);
  DistillOptions with_features;
  with_features.epochs = 1;
  with_features.gamma_features = 0.5f;
  vit::VitModel student2(tiny_model_config(), rng);
  EXPECT_GT(distill(teacher, student2, ds, with_features, rng).last.feature,
            0.0f);
}

TEST(Distiller, GridMismatchThrows) {
  Rng rng(14);
  vit::ViTConfig other = tiny_model_config();
  other.image_size = 48;  // different grid
  vit::VitModel teacher(tiny_model_config(), rng);
  vit::VitModel student(other, rng);
  EXPECT_THROW(distill(teacher, student, tiny_dataset(2, 14), {}, rng),
               std::invalid_argument);
}

TEST(Distiller, TaskRelevanceSupervisionLearns) {
  Rng rng(15);
  vit::ViTConfig teacher_cfg = tiny_model_config();
  teacher_cfg.dim = 24;
  vit::VitModel teacher(teacher_cfg, rng);
  // Give the teacher brief supervised training so KD targets are sane.
  const data::Dataset corpus = tiny_dataset(48, 16);
  TrainerOptions topt;
  topt.epochs = 6;
  train(teacher, corpus, topt);

  vit::VitModel student(tiny_model_config(), rng);
  const data::TaskSpec& task = data::task_by_id(2);  // fragile_items
  DistillOptions options;
  options.epochs = 14;
  distill(teacher, student, corpus, options, rng, &task);

  // Relevance head should correlate with ground truth on training data.
  const auto idx = corpus.all_indices();
  const data::Batch batch = corpus.make_batch(idx, &task);
  const auto out = student.forward(batch.images);
  int64_t correct = 0, total = 0;
  for (int64_t i = 0; i < out.relevance.numel(); ++i) {
    if (batch.objectness[i] < 0.5f) continue;
    const bool pred = out.relevance[i] > 0.0f;
    const bool truth = batch.relevance[i] > 0.5f;
    correct += (pred == truth);
    ++total;
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.7);
}

}  // namespace
}  // namespace itask::distill
