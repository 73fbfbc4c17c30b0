// Shared helpers for the experiment harnesses (bench_*). Each binary
// regenerates one table/figure from DESIGN.md §3 and prints it in a fixed
// plain-text format so runs can be diffed across machines.
//
// Scoring is not a bench helper: every reported F1 comes from
// core::Framework::evaluate, whose forward overload scores any model (an
// ablation's student, a re-quantized variant) with the served decode →
// relevance → NMS pipeline. Benches swap the forward, never the loop.
#pragma once

#include <cstdio>
#include <cstdlib>

#include "core/itask.h"

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

}  // namespace itask::bench
