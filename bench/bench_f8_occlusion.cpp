// F8 — occlusion-robust collaborative inference (extension).
//
// The abstract's "complex, real-world environments" include partially
// occluded targets; single-view detection under occlusion is the canonical
// failure mode collaborative (multi-view) perception addresses. This bench
// measures (a) how both deployable configurations degrade as seeded partial
// occlusion strengthens, (b) how much K-view fusion recovers at a fixed
// severity, and (c) what the scatter/gather group-request path costs in
// serving latency versus a single-view request — plus a hard element-wise
// identity check: the fused detections must be identical whether fusion runs
// serially outside the runtime, on one InferenceServer, or on a sharded
// InferenceFleet.
//
// Multi-core by design (the serving engine is the subject).
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "detect/fusion.h"
#include "detect/metrics.h"
#include "runtime/fleet.h"

using namespace itask;

namespace {

/// Returns a copy of `eval` with seeded partial occlusion burned into every
/// scene's pixels (ground truth untouched — same contract as F5's noise).
data::Dataset with_occlusion(const data::Dataset& eval, float severity,
                             uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Scene> scenes = eval.scenes();
  data::OcclusionOptions occ;
  occ.severity = severity;
  for (data::Scene& scene : scenes) data::apply_occlusion(scene, occ, rng);
  return data::Dataset(std::move(scenes));
}

/// K *independently occluded* views of one clean scene: each view applies
/// apply_occlusion with its own seed, so a different part of each object is
/// hidden per view — the multi-camera vantage diversity collaborative
/// fusion exists to exploit. (Same-image-plus-noise views would carry the
/// SAME occlusion in every view; fusion could denoise but never
/// de-occlude.) Deterministic in (scene, k, severity, seed).
std::vector<Tensor> occluded_views(const data::Scene& scene, int64_t k,
                                   float severity, uint64_t seed) {
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(k));
  data::OcclusionOptions occ;
  occ.severity = severity;
  for (int64_t v = 0; v < k; ++v) {
    data::Scene view(scene);
    Rng rng(seed + static_cast<uint64_t>(v));
    data::apply_occlusion(view, occ, rng);
    out.push_back(std::move(view.image));
  }
  return out;
}

/// Serial K-view fusion over the clean dataset: per scene, K independently
/// occluded views → per-view detect → fuse. Returns fused per-scene
/// detections.
std::vector<std::vector<detect::Detection>> fuse_dataset(
    core::Framework& fw, const data::Dataset& eval,
    const core::TaskHandle& task, core::ConfigKind config, int64_t k,
    float severity, uint64_t seed, const detect::FusionOptions& fusion) {
  std::vector<std::vector<detect::Detection>> fused;
  fused.reserve(static_cast<size_t>(eval.size()));
  for (int64_t i = 0; i < eval.size(); ++i) {
    const auto views = occluded_views(eval.scene(i), k, severity,
                                      seed + 100u * static_cast<uint64_t>(i));
    std::vector<std::vector<detect::Detection>> per_view;
    per_view.reserve(views.size());
    for (const Tensor& v : views) per_view.push_back(fw.detect(v, task, config));
    fused.push_back(detect::fuse_views(per_view, fusion));
  }
  return fused;
}

bool same_detections(const std::vector<detect::Detection>& a,
                     const std::vector<detect::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cell != b[i].cell ||
        a[i].predicted_class != b[i].predicted_class ||
        a[i].objectness != b[i].objectness ||
        a[i].task_score != b[i].task_score ||
        a[i].confidence != b[i].confidence ||
        a[i].box.cx != b[i].box.cx || a[i].box.cy != b[i].box.cy ||
        a[i].box.w != b[i].box.w || a[i].box.h != b[i].box.h) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const bool fast = std::getenv("ITASK_BENCH_FAST") != nullptr;
  bench::print_header(
      "F8 (figure): occlusion robustness via K-view collaborative fusion "
      "(extension)",
      "multi-view group requests recover accuracy lost to partial occlusion");

  core::FrameworkOptions options = bench::experiment_options(42);
  core::Framework fw(options);
  std::printf("pretraining teacher + both configurations…\n");
  fw.pretrain_teacher();
  fw.prepare_quantized();
  const data::TaskSpec& spec = data::task_by_id(1);  // surgical_sharps
  core::TaskHandle task = fw.define_task(spec);
  fw.prepare_task_specific(task);

  const int64_t eval_scenes = fast ? 32 : 96;
  const data::Dataset clean = bench::make_eval_set(options, eval_scenes,
                                                   8675309);
  const auto truth = core::Framework::ground_truth(clean, spec);
  // Require 2-view support (clamped to K for K = 1): at a fixed operating
  // point every detection counts, so keeping single-view phantoms — however
  // down-weighted — only adds false positives. Collaborative perception
  // keeps what at least two views agree on.
  detect::FusionOptions fusion;
  fusion.min_views = 2;

  // --- (a) single-view accuracy vs occlusion severity, both configs ------
  std::printf("\n[A] single-view accuracy vs occlusion severity (task \"%s\")\n",
              spec.name.c_str());
  std::printf("%8s | %16s | %16s\n", "severity", "task-specific F1",
              "quantized F1");
  const std::vector<float> severities =
      fast ? std::vector<float>{0.0f, 0.5f}
           : std::vector<float>{0.0f, 0.2f, 0.35f, 0.5f, 0.65f};
  for (float severity : severities) {
    const data::Dataset occluded =
        with_occlusion(clean, severity,
                       91u + static_cast<uint64_t>(severity * 1000));
    const auto ts =
        fw.evaluate(occluded, task, core::ConfigKind::kTaskSpecific);
    const auto q =
        fw.evaluate(occluded, task, core::ConfigKind::kQuantizedMultiTask);
    std::printf("%8.2f | %16.3f | %16.3f\n", severity, ts.f1, q.f1);
  }

  // --- (b) fused accuracy vs K at fixed severity -------------------------
  const float kSeverity = 0.5f;
  std::printf("\n[B] K-view fused accuracy at severity %.2f "
              "(serial fusion, independently occluded views)\n",
              kSeverity);
  std::printf("%8s | %16s | %16s\n", "K", "task-specific F1", "quantized F1");
  const std::vector<int64_t> ks = fast ? std::vector<int64_t>{1, 3}
                                       : std::vector<int64_t>{1, 3, 5};
  for (int64_t k : ks) {
    const auto ts_fused =
        fuse_dataset(fw, clean, task, core::ConfigKind::kTaskSpecific, k,
                     kSeverity, 7000, fusion);
    const auto q_fused =
        fuse_dataset(fw, clean, task, core::ConfigKind::kQuantizedMultiTask,
                     k, kSeverity, 7000, fusion);
    std::printf("%8lld | %16.3f | %16.3f\n", static_cast<long long>(k),
                detect::evaluate(ts_fused, truth).f1,
                detect::evaluate(q_fused, truth).f1);
  }

  // --- (c) serving: group requests vs single requests + identity check ---
  const auto snapshot = fw.publish();
  const int64_t lat_scenes = fast ? 8 : 24;
  constexpr int64_t kViews = 3;
  const core::ConfigKind config = core::ConfigKind::kQuantizedMultiTask;

  runtime::RuntimeOptions ro;
  ro.workers = 2;
  ro.max_batch = 4;
  ro.max_wait_us = 200;
  ro.fusion = fusion;

  // Serial reference: the fused detections every serving path must match —
  // built from the same (scene, K, severity, seed) views the groups carry.
  const auto serial_fused =
      fuse_dataset(fw, clean, task, config, kViews, kSeverity, 7000, fusion);
  const data::Dataset occluded = with_occlusion(clean, kSeverity, 91u + 500u);

  double single_us = 0.0;
  double group_us = 0.0;
  double fuse_us = 0.0;
  std::vector<std::vector<detect::Detection>> server_fused;
  {
    runtime::InferenceServer server(snapshot, ro);
    for (int64_t i = 0; i < lat_scenes; ++i) {
      auto s = server.try_submit(occluded.scene(i).image, task.id, config);
      if (s.admitted()) single_us += s.future->get().total_us;
      auto g = server.try_submit_group(
          occluded_views(clean.scene(i), kViews, kSeverity,
                         7000 + 100u * static_cast<uint64_t>(i)),
          task.id, config);
      if (g.admitted()) {
        auto r = g.future->get();
        group_us += r.total_us;
        fuse_us += r.fuse_us;
        server_fused.push_back(std::move(r.fused));
      }
    }
    server.shutdown();
  }

  std::vector<std::vector<detect::Detection>> fleet_fused;
  {
    runtime::FleetOptions fo;
    fo.shards = 2;
    fo.replication = 2;
    fo.shard_options = ro;
    runtime::InferenceFleet fleet(snapshot, fo);
    std::vector<std::future<runtime::GroupInferenceResult>> futures;
    for (int64_t i = 0; i < lat_scenes; ++i) {
      auto g = fleet.try_submit_group(
          occluded_views(clean.scene(i), kViews, kSeverity,
                         7000 + 100u * static_cast<uint64_t>(i)),
          task.id, config);
      if (g.admitted()) futures.push_back(std::move(*g.future));
    }
    for (auto& f : futures) fleet_fused.push_back(f.get().fused);
    fleet.shutdown();
  }

  const double n = static_cast<double>(lat_scenes);
  std::printf("\n[C] serving latency, %lld requests each "
              "(quantized config, 2 workers)\n",
              static_cast<long long>(lat_scenes));
  std::printf("%-28s | %12s\n", "path", "mean us/req");
  std::printf("%-28s | %12.1f\n", "single view (try_submit)", single_us / n);
  std::printf("%-28s | %12.1f\n", "K=3 group (try_submit_group)",
              group_us / n);
  std::printf("%-28s | %12.1f\n", "  of which gather fusion", fuse_us / n);

  // Identity: fleet (2 shards) == single server == serial fusion, all
  // element-wise. A mismatch is a correctness failure, not a perf shape.
  bool identical = server_fused.size() == static_cast<size_t>(lat_scenes) &&
                   fleet_fused.size() == static_cast<size_t>(lat_scenes);
  for (size_t i = 0; identical && i < server_fused.size(); ++i) {
    identical = same_detections(server_fused[i], serial_fused[i]) &&
                same_detections(fleet_fused[i], serial_fused[i]);
  }
  std::printf("\nfused identity (serial == server == 2-shard fleet): %s\n",
              identical ? "PASS" : "FAIL");

  bench::print_footer_note(
      "shape: [A] both configurations degrade with severity (truncation "
      "+ overlap erase the pixel cues attributes ground to); adjacent "
      "severities may swap by a few hundredths of F1. "
      "[B] each view hides a DIFFERENT part of each object (independent "
      "occlusion seeds), so fusion with 2-view agreement recovers the "
      "TASK-SPECIFIC configuration substantially at K=3 (an object lost in "
      "one view survives in another; phantoms rarely repeat across views) "
      "— but not the quantized configuration (K=3 is no better than one "
      "view), whose per-view recall under heavy occlusion is too low for "
      "the same object to clear the threshold in two views. Multi-view agreement needs per-view "
      "competence; same-image-plus-noise views would show no recovery at "
      "all (fusion cannot de-occlude without vantage diversity). [C] a K=3 "
      "group costs far less than 3x a single request (its views share one "
      "micro-batch) and gather fusion is microseconds — the scatter/gather "
      "API's overhead is admission + fan-out, not fusion. The identity "
      "line must PASS: fusion is deterministic and placement-independent "
      "at any shard count.");
  if (!identical) return 1;
  return 0;
}
