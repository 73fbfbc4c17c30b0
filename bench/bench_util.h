// Shared helpers for the experiment harnesses (bench_*). Each binary
// regenerates one table/figure from DESIGN.md §3 and prints it in a fixed
// plain-text format so runs can be diffed across machines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/itask.h"
#include "detect/decoder.h"
#include "detect/nms.h"

namespace itask::bench {

/// Standard experiment budgets. `ITASK_BENCH_FAST=1` shrinks everything for
/// smoke runs (CI); results keep their shape but get noisier.
inline core::FrameworkOptions experiment_options(uint64_t seed) {
  core::FrameworkOptions o;
  o.seed = seed;
  if (std::getenv("ITASK_BENCH_FAST") != nullptr) {
    o.corpus_size = 256;
    o.task_corpus_size = 96;
    o.multitask_corpus_size = 96;
    o.teacher_training.epochs = 12;
    o.distillation.epochs = 12;
    o.multitask_distillation.epochs = 12;
  }
  return o;
}

inline void print_header(const char* experiment_id, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment_id, claim);
  std::printf("==============================================================\n");
}

inline void print_footer_note(const char* note) {
  std::printf("--------------------------------------------------------------\n");
  std::printf("note: %s\n\n", note);
}

/// Builds a fresh evaluation set disjoint (by seed) from all training data.
inline data::Dataset make_eval_set(const core::FrameworkOptions& options,
                                   int64_t scenes, uint64_t seed) {
  Rng rng(seed);
  const data::SceneGenerator generator(options.generator);
  return data::Dataset::generate(generator, scenes, rng);
}

/// Knowledge-graph inference path for an arbitrary forward function
/// (mirrors the framework's quantized-configuration path). Used by ablation
/// benches that swap model runtimes under one matcher.
template <typename ForwardFn>
detect::EvalResult evaluate_kg_path(ForwardFn&& forward,
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
      detections.push_back(detect::nms(std::move(kept), options.nms_iou));
    }
  }
  return detect::evaluate(detections,
                          core::Framework::ground_truth(eval, task.spec),
                          options.eval_iou);
}

/// Relevance-head inference path for a student model (mirrors the
/// framework's task-specific path).
inline detect::EvalResult evaluate_rel_path(
    vit::VitModel& student, const core::FrameworkOptions& options,
    const data::Dataset& eval, const data::TaskSpec& spec) {
  detect::DecoderOptions dec = options.decoder;
  dec.grid = options.generator.grid;
  dec.image_size = options.generator.image_size;
  std::vector<std::vector<detect::Detection>> detections;
  const auto indices = eval.all_indices();
  for (int64_t start = 0; start < eval.size(); start += 16) {
    const int64_t end = std::min(eval.size(), start + 16);
    const data::Batch batch = eval.make_batch(std::span<const int64_t>(
        indices.data() + start, static_cast<size_t>(end - start)));
    const vit::VitOutput out = student.forward(batch.images);
    auto candidates = detect::decode(out, dec);
    for (size_t bi = 0; bi < candidates.size(); ++bi) {
      std::vector<detect::Detection> kept;
      for (detect::Detection& d : candidates[bi]) {
        const float logit =
            out.relevance.at({static_cast<int64_t>(bi), d.cell, 0});
        const float rel = 1.0f / (1.0f + std::exp(-logit));
        if (rel < options.relevance_threshold) continue;
        d.confidence = d.objectness * rel;
        kept.push_back(std::move(d));
      }
      detections.push_back(detect::nms(std::move(kept), options.nms_iou));
    }
  }
  return detect::evaluate(detections,
                          core::Framework::ground_truth(eval, spec),
                          options.eval_iou);
}

}  // namespace itask::bench
