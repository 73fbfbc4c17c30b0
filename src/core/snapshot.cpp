#include "core/snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/arena.h"
#include "tensor/format.h"

namespace itask::core {

std::vector<std::vector<detect::Detection>> decode_and_match(
    const vit::VitOutput& output,
    std::span<const kg::CompiledTask* const> tasks, bool use_rel_head,
    const DetectionPipeline& pipeline) {
  auto candidates = detect::decode(output, pipeline.decoder);
  ITASK_CHECK(tasks.size() == candidates.size(),
              "decode_and_match: need one task per image");
  // A TaskMatcher copies its task's label and vectors, so build one per
  // distinct task, and none when the relevance head decides.
  std::vector<std::pair<const kg::CompiledTask*, kg::TaskMatcher>> matchers;
  const auto matcher_for = [&](const kg::CompiledTask* task)
      -> const kg::TaskMatcher& {
    for (const auto& [seen, matcher] : matchers) {
      if (seen == task) return matcher;
    }
    return matchers
        .emplace_back(task, kg::TaskMatcher(*task, pipeline.matcher))
        .second;
  };
  std::vector<std::vector<detect::Detection>> result;
  result.reserve(candidates.size());
  for (size_t bi = 0; bi < candidates.size(); ++bi) {
    const kg::TaskMatcher* matcher =
        use_rel_head ? nullptr : &matcher_for(tasks[bi]);
    std::vector<detect::Detection> kept;
    for (detect::Detection& d : candidates[bi]) {
      if (use_rel_head) {
        const float rel_logit = output.relevance.at(
            {static_cast<int64_t>(bi), d.cell, 0});
        const float rel = 1.0f / (1.0f + std::exp(-rel_logit));
        d.task_score = rel;
        if (!(rel >= pipeline.relevance_threshold)) continue;  // drops NaN
        d.confidence = d.objectness * rel;
      } else {
        d.task_score = matcher->score(d.attr_probs, d.class_probs);
        if (!matcher->relevant(d.attr_probs, d.class_probs)) continue;
        d.confidence =
            d.objectness * matcher->confidence(d.attr_probs, d.class_probs);
      }
      kept.push_back(std::move(d));
    }
    result.push_back(detect::nms(std::move(kept), pipeline.nms_iou));
  }
  return result;
}

DeploymentSnapshot::DeploymentSnapshot(
    int64_t version, Shape expected_input_shape, kg::TaskTable tasks,
    std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>> students,
    std::shared_ptr<const quant::QuantizedVit> quantized,
    DetectionPipeline pipeline)
    : version_(version),
      expected_input_shape_(std::move(expected_input_shape)),
      tasks_(std::move(tasks)),
      students_(std::move(students)),
      quantized_(std::move(quantized)),
      pipeline_(std::move(pipeline)) {
  ITASK_CHECK(version_ >= 1, "DeploymentSnapshot: version must be >= 1");
  ITASK_CHECK(expected_input_shape_.size() == 3,
              "DeploymentSnapshot: expected_input_shape must be [C, H, W]");
  for (const auto& [id, student] : students_) {
    ITASK_CHECK(student != nullptr,
                "DeploymentSnapshot: null student for " +
                    kg::task_id_to_string(id));
    ITASK_CHECK(tasks_.contains(id),
                "DeploymentSnapshot: student without a task table entry for " +
                    kg::task_id_to_string(id));
  }
}

bool DeploymentSnapshot::servable(kg::TaskId id, ConfigKind config) const {
  if (!tasks_.contains(id)) return false;
  if (config == ConfigKind::kTaskSpecific) {
    return students_.find(id) != students_.end();
  }
  return quantized_ != nullptr;
}

std::vector<std::vector<detect::Detection>> DeploymentSnapshot::infer_batch(
    const Tensor& images, kg::TaskId id, ConfigKind config) const {
  return decode_batch(infer_raw(images, id, config), id, config);
}

vit::VitOutput DeploymentSnapshot::infer_raw(const Tensor& images,
                                             kg::TaskId id,
                                             ConfigKind config) const {
  ITASK_CHECK(images.ndim() == 4, "DeploymentSnapshot: need [B, C, H, W]");
  ITASK_CHECK(tasks_.find(id) != nullptr,
              "DeploymentSnapshot: " + kg::task_id_to_string(id) +
                  " is not in snapshot v" + fmt::i64(version_) +
                  " (publish a snapshot containing it first)");
  if (config == ConfigKind::kTaskSpecific) {
    const auto it = students_.find(id);
    ITASK_CHECK(it != students_.end(),
                "DeploymentSnapshot: no task-specific student for " +
                    kg::task_id_to_string(id) + " in snapshot v" +
                    fmt::i64(version_));
    return it->second->infer(images);
  }
  ITASK_CHECK(quantized_ != nullptr,
              "DeploymentSnapshot: snapshot v" + fmt::i64(version_) +
                  " has no quantized model (prepare_quantized before "
                  "publish)");
  return quantized_->forward(images);
}

std::vector<std::vector<detect::Detection>> DeploymentSnapshot::decode_batch(
    const vit::VitOutput& output, kg::TaskId id, ConfigKind config) const {
  ITASK_CHECK(output.objectness.ndim() == 3,
              "DeploymentSnapshot: objectness must be [B, T, 1]");
  const std::vector<kg::TaskId> ids(
      static_cast<size_t>(output.objectness.shape()[0]), id);
  return decode_batch(output, ids, config);
}

std::vector<std::vector<detect::Detection>> DeploymentSnapshot::decode_batch(
    const vit::VitOutput& output, std::span<const kg::TaskId> ids,
    ConfigKind config) const {
  std::vector<const kg::CompiledTask*> tasks;
  tasks.reserve(ids.size());
  for (const kg::TaskId id : ids) {
    const kg::TaskTable::Entry* entry = tasks_.find(id);
    ITASK_CHECK(entry != nullptr,
                "DeploymentSnapshot: " + kg::task_id_to_string(id) +
                    " is not in snapshot v" + fmt::i64(version_));
    tasks.push_back(&entry->compiled);
  }
  return decode_and_match(output, tasks,
                          /*use_rel_head=*/config == ConfigKind::kTaskSpecific,
                          pipeline_);
}

std::optional<kg::TaskId> DeploymentSnapshot::first_missing_task(
    const DeploymentSnapshot& older) const {
  for (const kg::TaskId id : older.tasks().ids()) {
    if (!tasks_.contains(id)) return id;
  }
  return std::nullopt;
}

int64_t DeploymentSnapshot::plan_workspace(int64_t max_batch) const {
  ITASK_CHECK(max_batch >= 1, "plan_workspace: max_batch must be >= 1");
  Shape batched = expected_input_shape_;
  batched.insert(batched.begin(), max_batch);
  int64_t bytes = 0;
  const auto probe_one = [&](const auto& run_model) {
    // Zero-capacity probe arena: every allocation overflows (individually
    // heap'd, freed at its mark's release or on destruction) while peak()
    // records the largest live footprint, the capacity the real arena must
    // cover (the liveness rule, tensor/arena.h).
    Arena probe(0);
    const ArenaScope scope(probe);
    const Tensor images(batched);  // the worker's stacked batch counts too
    const vit::VitOutput out = run_model(images);
    (void)out;
    bytes = std::max(bytes, probe.peak());
  };
  for (const auto& [id, student] : students_) {
    (void)id;
    probe_one([&](const Tensor& images) { return student->infer(images); });
  }
  if (quantized_ != nullptr) {
    probe_one(
        [&](const Tensor& images) { return quantized_->forward(images); });
  }
  return bytes;
}

}  // namespace itask::core
