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

TEST(Trainer, FitLeavesOnlyWeights) {
  Rng rng(3);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(12, 4);
  TrainerOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  Trainer(model, options).fit(ds);
  expect_only_weights_left(model);
}

TEST(Distiller, RunLeavesOnlyWeights) {
  Rng rng(5);
  vit::ViTConfig teacher_cfg = tiny_model_config();
  teacher_cfg.dim = 24;
  vit::VitModel teacher(teacher_cfg, rng);
  vit::VitModel student(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(12, 6);
  DistillOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  Distiller(teacher, student, options, rng).run(ds, &data::task_by_id(1));
  expect_only_weights_left(student);
  for (nn::Parameter* p : teacher.parameters())
    EXPECT_TRUE(p->grad.empty()) << p->name;
}

TEST(Qat, FinetuneLeavesOnlyWeights) {
  Rng rng(7);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(12, 8);
  quant::QatOptions options;
  options.epochs = 1;
  options.batch_size = 8;
  (void)quant::qat_finetune(model, ds, options);
  expect_only_weights_left(model);
}

TEST(Trainer, LossDecreases) {
  Rng rng(1);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(32, 2);
  TrainerOptions options;
  options.epochs = 8;
  options.batch_size = 8;
  Trainer trainer(model, options);
  const TrainStats stats = trainer.fit(ds);
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
  options.w_relevance = 0.0f;
  Trainer trainer(model, options);
  const TrainStats without = trainer.fit(ds, &task);
  EXPECT_EQ(without.last.relevance, 0.0f);
  options.w_relevance = 1.0f;
  vit::VitModel model2(tiny_model_config(), rng);
  Trainer trainer2(model2, options);
  const TrainStats with = trainer2.fit(ds, &task);
  EXPECT_GT(with.last.relevance, 0.0f);
}

TEST(Trainer, EmptyDatasetThrows) {
  Rng rng(5);
  vit::VitModel model(tiny_model_config(), rng);
  Trainer trainer(model, {});
  EXPECT_THROW(trainer.fit(data::Dataset()), std::invalid_argument);
}

TEST(SupervisedLosses, GradShapesMatchOutputs) {
  Rng rng(6);
  vit::VitModel model(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(4, 7);
  const auto idx = ds.all_indices();
  const data::Batch batch = ds.make_batch(idx);
  const vit::VitOutput out = model.forward(batch.images);
  TrainerOptions options;
  options.w_relevance = 1.0f;
  vit::VitOutputGrads grads;
  const StepLosses losses = supervised_losses(out, batch, options, grads);
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
  Distiller distiller(teacher, student, options, rng);
  const DistillStats stats = distiller.run(ds);
  EXPECT_GT(stats.steps, 0);
  EXPECT_LT(distance(), before);
  EXPECT_LT(stats.last_total, stats.first_total);
}

TEST(Distiller, FeatureProjectionOptional) {
  Rng rng(12);
  vit::VitModel teacher(tiny_model_config(), rng);
  vit::VitModel student(tiny_model_config(), rng);
  const data::Dataset ds = tiny_dataset(8, 13);
  DistillOptions options;
  options.epochs = 1;
  options.gamma_features = 0.0f;  // disabled
  Distiller distiller(teacher, student, options, rng);
  const DistillStats stats = distiller.run(ds);
  EXPECT_EQ(stats.last_feature, 0.0f);
  DistillOptions with_features;
  with_features.epochs = 1;
  with_features.gamma_features = 0.5f;
  vit::VitModel student2(tiny_model_config(), rng);
  Distiller distiller2(teacher, student2, with_features, rng);
  EXPECT_GT(distiller2.run(ds).last_feature, 0.0f);
}

TEST(Distiller, GridMismatchThrows) {
  Rng rng(14);
  vit::ViTConfig other = tiny_model_config();
  other.image_size = 48;  // different grid
  vit::VitModel teacher(tiny_model_config(), rng);
  vit::VitModel student(other, rng);
  EXPECT_THROW(Distiller(teacher, student, {}, rng), std::invalid_argument);
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
  Trainer(teacher, topt).fit(corpus);

  vit::VitModel student(tiny_model_config(), rng);
  const data::TaskSpec& task = data::task_by_id(2);  // fragile_items
  DistillOptions options;
  options.epochs = 14;
  Distiller distiller(teacher, student, options, rng);
  distiller.run(corpus, &task);

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
