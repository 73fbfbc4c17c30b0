// Cross-view detection fusion for occlusion-robust collaborative inference
// (DESIGN.md §2, bench F8): K cheap students look at jittered views of one
// scene and their detections are merged at the box level. An object occluded
// into ambiguity in one view survives through the views that still see it,
// while a single-view phantom is de-weighted by its missing support — the
// "Tiny Collaborative Inference" counter to the occlusion degradation F5/F8
// measure.
//
// Determinism contract: fused output is a pure function of the MULTISET of
// input detections — invariant to view arrival order and to the order of
// equal-confidence boxes. fuse_views canonicalizes every candidate through
// fusion_order (detect::detection_order refined to a strict total order over
// all scored fields) before greedy clustering, and every merge reduction
// accumulates in that canonical order, so byte-identical inputs give
// byte-identical outputs on any gather path: serial fusion, the single
// server's scatter/gather, or the fleet at any shard count (test_runtime's
// Fusion/Group suites assert it).
#pragma once

#include <cstdint>
#include <vector>

#include "detect/detection.h"
#include "detect/nms.h"
#include "tensor/rng.h"

namespace itask::detect {

struct FusionOptions {
  /// Same-class candidates from different views merge into one cluster when
  /// their IoU with the cluster seed exceeds this.
  float merge_iou = 0.5f;
  /// Clusters supported by fewer distinct views are dropped (clamped to the
  /// actual view count, so K = 1 degenerates to the single-view result).
  int64_t min_views = 1;
  /// Final cross-class NMS over the fused boxes — the same greedy rule a
  /// single view's pipeline ends with.
  float nms_iou = 0.5f;
};

/// The one FusionOptions rule — merge_iou in [0, 1), min_views >= 1 —
/// shared by fuse_views and the server's constructor; throws
/// std::invalid_argument naming `who`.
void check_fusion_options(const FusionOptions& options, const char* who);

/// The canonical strict total order behind fusion determinism:
/// detection_order first, ties refined by objectness, task_score, then the
/// attribute and class probability vectors lexicographically. Two detections
/// equal under fusion_order are byte-identical in every field fusion reads,
/// so any input permutation reduces to the same result.
bool fusion_order(const Detection& a, const Detection& b);

/// Merges per-view detection lists (views[v] = view v's NMS output, all in
/// one image coordinate frame) into one fused list, sorted by
/// detection_order. Per cluster: the box is the confidence-weighted mean of
/// each view's best member, the confidence is the sum of those members'
/// confidences divided by the TOTAL view count (absent views count as zero
/// evidence — that is the de-weighting that suppresses single-view
/// phantoms), and the remaining fields come from the highest-ranked member.
std::vector<Detection> fuse_views(
    const std::vector<std::vector<Detection>>& views,
    const FusionOptions& options = {});

/// Synthesizes the K views of one collaborative request: view 0 is the clean
/// image, views 1..k-1 add seeded N(0, sigma) sensor jitter — the same
/// corruption model as F5, so per-view errors decorrelate while every box
/// stays in the source image's coordinate frame. Pure function of
/// (image, views, sigma, seed), so the serial, single-server, and fleet
/// paths materialize identical views from the same seed.
std::vector<Tensor> jittered_views(const Tensor& image, int64_t views,
                                   float sigma, uint64_t seed);

}  // namespace itask::detect
