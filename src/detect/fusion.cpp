#include "detect/fusion.h"

#include <algorithm>
#include <string>
#include <utility>

#include "tensor/shape.h"

namespace itask::detect {
namespace {

// Lexicographic order over two probability vectors; empty sorts first so a
// decoder that omits attributes still gets a total order.
int compare_probs(const Tensor& a, const Tensor& b) {
  const auto av = a.data();
  const auto bv = b.data();
  const size_t n = std::min(av.size(), bv.size());
  for (size_t i = 0; i < n; ++i) {
    if (av[i] != bv[i]) return av[i] < bv[i] ? -1 : 1;
  }
  if (av.size() != bv.size()) return av.size() < bv.size() ? -1 : 1;
  return 0;
}

}  // namespace

bool fusion_order(const Detection& a, const Detection& b) {
  if (detection_order(a, b)) return true;
  if (detection_order(b, a)) return false;
  if (a.objectness != b.objectness) return a.objectness > b.objectness;
  if (a.task_score != b.task_score) return a.task_score > b.task_score;
  const int attr = compare_probs(a.attr_probs, b.attr_probs);
  if (attr != 0) return attr < 0;
  return compare_probs(a.class_probs, b.class_probs) < 0;
}

void check_fusion_options(const FusionOptions& options, const char* who) {
  ITASK_CHECK(options.merge_iou >= 0.0f && options.merge_iou < 1.0f,
              std::string(who) + ": merge_iou must be in [0, 1)");
  ITASK_CHECK(options.min_views >= 1,
              std::string(who) + ": min_views must be >= 1");
}

std::vector<Detection> fuse_views(
    const std::vector<std::vector<Detection>>& views,
    const FusionOptions& options) {
  check_fusion_options(options, "fuse_views");
  const int64_t k = static_cast<int64_t>(views.size());
  ITASK_CHECK(k >= 1, "fuse_views: need at least one view");

  // Flatten, remembering which view each candidate came from, then sort into
  // the canonical order. From here on nothing depends on the order views (or
  // equal-confidence boxes within a view) arrived in.
  struct Tagged {
    const Detection* det;
    int64_t view;
  };
  std::vector<Tagged> all;
  for (int64_t v = 0; v < k; ++v) {
    for (const Detection& d : views[static_cast<size_t>(v)]) {
      all.push_back({&d, v});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (fusion_order(*a.det, *b.det)) return true;
    if (fusion_order(*b.det, *a.det)) return false;
    // Byte-identical detections from different views: order by view index so
    // the representative choice below is still deterministic.
    return a.view < b.view;
  });

  // Greedy clustering against cluster seeds (the highest-ranked member), the
  // same shape as greedy NMS: each candidate joins the first existing
  // same-class cluster it overlaps, else opens its own.
  struct Cluster {
    std::vector<Tagged> members;  // canonical order preserved
  };
  std::vector<Cluster> clusters;
  for (const Tagged& t : all) {
    bool joined = false;
    for (Cluster& c : clusters) {
      const Detection& seed = *c.members.front().det;
      if (seed.predicted_class == t.det->predicted_class &&
          iou(seed.box, t.det->box) > options.merge_iou) {
        c.members.push_back(t);
        joined = true;
        break;
      }
    }
    if (!joined) clusters.push_back(Cluster{{t}});
  }

  // Reduce each cluster. Per view only the highest-ranked member counts as
  // that view's evidence (a view cannot vouch for the same object twice);
  // support below the (clamped) min_views floor drops the cluster.
  const int64_t need = std::min(options.min_views, k);
  std::vector<Detection> fused;
  std::vector<const Detection*> rep(static_cast<size_t>(k));
  for (const Cluster& c : clusters) {
    std::fill(rep.begin(), rep.end(), nullptr);
    int64_t support = 0;
    for (const Tagged& t : c.members) {
      const Detection*& slot = rep[static_cast<size_t>(t.view)];
      if (slot == nullptr) {
        slot = t.det;
        ++support;
      }
    }
    if (support < need) continue;

    Detection out = *c.members.front().det;  // strongest evidence wins fields
    // Confidence-weighted mean box over the per-view representatives,
    // accumulated in canonical (view-index) order in double precision.
    double wsum = 0.0, cx = 0.0, cy = 0.0, w = 0.0, h = 0.0, csum = 0.0;
    for (int64_t v = 0; v < k; ++v) {
      const Detection* r = rep[static_cast<size_t>(v)];
      if (r == nullptr) continue;
      const double wt = static_cast<double>(r->confidence);
      wsum += wt;
      cx += wt * static_cast<double>(r->box.cx);
      cy += wt * static_cast<double>(r->box.cy);
      w += wt * static_cast<double>(r->box.w);
      h += wt * static_cast<double>(r->box.h);
      csum += static_cast<double>(r->confidence);
    }
    if (wsum > 0.0) {
      out.box.cx = static_cast<float>(cx / wsum);
      out.box.cy = static_cast<float>(cy / wsum);
      out.box.w = static_cast<float>(w / wsum);
      out.box.h = static_cast<float>(h / wsum);
    }
    // Missing views contribute zero evidence: dividing by K (not support)
    // is what de-weights single-view phantoms relative to well-seen objects.
    out.confidence = static_cast<float>(csum / static_cast<double>(k));
    fused.push_back(std::move(out));
  }

  // The fused list can still contain cross-class overlaps (clusters never
  // merge across classes); finish with the pipeline's own greedy NMS, which
  // also returns the list in detection_order.
  return nms(std::move(fused), options.nms_iou);
}

std::vector<Tensor> jittered_views(const Tensor& image, int64_t views,
                                   float sigma, uint64_t seed) {
  ITASK_CHECK(views >= 1, "jittered_views: need at least one view");
  ITASK_CHECK(sigma >= 0.0f, "jittered_views: sigma must be >= 0");
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(views));
  out.push_back(Tensor(image));  // view 0 is the clean image
  Rng rng(seed);
  for (int64_t v = 1; v < views; ++v) {
    Tensor noisy(image);
    for (float& x : noisy.data()) x += rng.normal(0.0f, sigma);
    out.push_back(std::move(noisy));
  }
  return out;
}

}  // namespace itask::detect
