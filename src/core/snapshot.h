// Versioned, immutable deployment snapshots — the Framework↔runtime boundary.
//
// A DeploymentSnapshot is a value-semantic bundle of everything needed to
// *serve*: the INT8 multi-task model, the per-slot distilled students, the
// compiled task table keyed by stable kg::TaskId, the expected input shape,
// and a monotonically increasing version number. Framework::publish()
// produces one; runtime::InferenceServer holds the current one behind an
// atomically swapped std::shared_ptr and each micro-batch acquires it once
// (RCU-style — an old snapshot retires when the last in-flight batch
// releases its reference), so define_task / prepare_* / publish can run
// concurrently with serving and a task becomes servable the instant a
// snapshot containing it is installed.
//
// Immutability contract: a snapshot never changes after construction. The
// model objects inside it are shared with the Framework that published it
// (publish() is cheap — no weight copies), and re-preparing the Framework
// replaces those objects rather than mutating them, so published snapshots
// keep serving the weights they were published with. Inference goes through
// the const, cache-free model entry points only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/policy.h"
#include "detect/decoder.h"
#include "detect/nms.h"
#include "kg/task_table.h"
#include "quant/qvit.h"
#include "vit/model.h"

namespace itask::core {

/// Options for the shared decode → relevance → NMS pipeline. One struct so
/// the Framework's serial paths and a snapshot's serving path run literally
/// the same code — the element-wise identity test_runtime asserts.
struct DetectionPipeline {
  detect::DecoderOptions decoder;
  kg::MatcherOptions matcher;
  float relevance_threshold = 0.5f;
  float nms_iou = 0.5f;
};

/// Decodes raw model outputs, applies task relevance per image (the
/// dedicated relevance head when `use_rel_head`, KG matching of `tasks[b]`
/// for image b otherwise), and NMS-filters per image. `tasks` holds one
/// compiled task per image; images naming the same task object share one
/// kg::TaskMatcher, so a batch mixing tasks (the INT8 multi-task model
/// serves any mix in one forward) builds one matcher per distinct task.
std::vector<std::vector<detect::Detection>> decode_and_match(
    const vit::VitOutput& output,
    std::span<const kg::CompiledTask* const> tasks, bool use_rel_head,
    const DetectionPipeline& pipeline);

class DeploymentSnapshot {
 public:
  DeploymentSnapshot(
      int64_t version, Shape expected_input_shape, kg::TaskTable tasks,
      std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>> students,
      std::shared_ptr<const quant::QuantizedVit> quantized,
      DetectionPipeline pipeline);

  /// Monotonically increasing per-Framework publish counter (first
  /// publish() is version 1). The serving runtime rejects installing a
  /// snapshot whose version does not increase.
  int64_t version() const { return version_; }

  /// Per-image [C, H, W] shape every model in this snapshot expects — the
  /// admission contract the runtime validates requests against.
  const Shape& expected_input_shape() const { return expected_input_shape_; }

  /// The compiled task table (kg-owned form). Tables only grow across
  /// versions, so any task servable under version n is servable under n+k.
  const kg::TaskTable& tasks() const { return tasks_; }

  bool has_task(kg::TaskId id) const { return tasks_.contains(id); }
  int64_t task_count() const { return tasks_.size(); }

  /// Whether `config` can serve `id` from this snapshot: task-specific
  /// needs a distilled student published for the task, quantized needs the
  /// INT8 model plus the task's compiled graph vectors.
  bool servable(kg::TaskId id, ConfigKind config) const;

  /// Thread-safe batched detection ([B, C, H, W]), element-wise identical
  /// to Framework::detect_batch over the same weights: const, cache-free,
  /// any number of workers may call it concurrently on one snapshot.
  /// Throws std::invalid_argument when (id, config) is not servable.
  /// Equivalent to decode_batch(infer_raw(...)).
  std::vector<std::vector<detect::Detection>> infer_batch(
      const Tensor& images, kg::TaskId id, ConfigKind config) const;

  /// The model half of infer_batch: runs the (id, config) model and returns
  /// its raw outputs, no decoding. This is the region a runtime worker wraps
  /// in an ArenaScope — every intermediate (and the returned VitOutput's
  /// tensors) then lives in the worker's arena. Same validation and
  /// arithmetic as infer_batch.
  vit::VitOutput infer_raw(const Tensor& images, kg::TaskId id,
                           ConfigKind config) const;

  /// The decode half: decode → task relevance → NMS over infer_raw's output.
  /// Runs OUTSIDE the arena scope, because the returned Detections carry
  /// tensors that escape into results — they must be heap-backed. Only reads
  /// `output`, so arena-resident outputs are fine as long as the arena has
  /// not been reset yet. Every image is matched against `id`.
  std::vector<std::vector<detect::Detection>> decode_batch(
      const vit::VitOutput& output, kg::TaskId id, ConfigKind config) const;

  /// The same decode with one task per image: image b is matched against
  /// `ids[b]`. The INT8 model ignores the task, so one infer_raw can serve
  /// requests of several tasks and this decodes each against its own; the
  /// single-id form above is this one with `id` repeated.
  std::vector<std::vector<detect::Detection>> decode_batch(
      const vit::VitOutput& output, std::span<const kg::TaskId> ids,
      ConfigKind config) const;

  /// The version-skew tolerance contract behind staged fleet rollouts: a
  /// newer snapshot must contain every task of `older` (task tables only
  /// grow), so shards at mixed versions serve identical results for any
  /// task the older version knew and a request admitted against one shard's
  /// version is servable on any other. Returns the first task of `older`
  /// missing from this snapshot, or nullopt when fully covered — the fleet
  /// asserts nullopt before rolling a snapshot onto any shard.
  std::optional<kg::TaskId> first_missing_task(
      const DeploymentSnapshot& older) const;

  /// Peak arena bytes one serving worker needs for any micro-batch of up to
  /// `max_batch` images on any (task, config) this snapshot serves — the
  /// capacity InferenceServer sizes per-worker arenas with at install time.
  /// Measured, not estimated: probes each deployable model once on a
  /// zero-filled [max_batch, C, H, W] batch (stacked batch included) under a
  /// zero-capacity arena, whose peak() is exactly the required capacity by
  /// the liveness and accounting rules (tensor/arena.h).
  int64_t plan_workspace(int64_t max_batch) const;

 private:
  int64_t version_ = 0;
  Shape expected_input_shape_;
  kg::TaskTable tasks_;
  std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>> students_;
  std::shared_ptr<const quant::QuantizedVit> quantized_;
  DetectionPipeline pipeline_;
};

}  // namespace itask::core
