// Per-request stage timeline for the serving runtime.
//
// A request's lifecycle is a fixed sequence of spans:
//
//   admitted ──queue-wait──▶ picked ──batch-formation──▶ infer-start
//            ──infer──▶ infer-end, terminal ∈ {completed, failed, expired}
//
// The span recorder turns the four clock readings into per-stage durations
// and feeds each stage's own Histogram in the MetricsRegistry
// (stage_queue_wait_us / stage_batch_formation_us / stage_infer_us /
// stage_total_us), which is what servebench's per-stage spans and the
// exposition formats read. The server's one terminal routine
// (InferenceServer::resolve) records each request once, and the terminal
// kind decides which spans are real: an unserved (failed or expired)
// request never finished inference, so only its queue-wait is recorded —
// not a garbage end-to-end latency.
#pragma once

#include <cstdint>

#include "runtime/metrics.h"

namespace itask::runtime {

enum class Stage { kQueueWait, kBatchFormation, kInfer, kTotal };

/// Histogram name for a stage ("stage_queue_wait_us", …).
const char* stage_histogram_name(Stage s);

/// Raw clock readings (injectable clock, µs) for one request's lifecycle,
/// plus which deployment snapshot version the serving micro-batch acquired.
struct StageTimeline {
  int64_t admitted_us = 0;     // try_submit accepted the request
  int64_t picked_us = 0;       // a worker popped it into a micro-batch
  int64_t infer_start_us = 0;  // its (config, model) group's forward began
  int64_t infer_end_us = 0;    // forward + decode returned
  int64_t snapshot_version = 0;  // DeploymentSnapshot::version() that served it
};

/// Non-negative span in µs: clock readings taken on different threads are
/// ordered by happens-before, but a defensive clamp turns any residual
/// skew/reordering into 0 instead of a negative duration corrupting the
/// histograms.
double span_us(int64_t from_us, int64_t to_us);

/// Feeds stage durations into the registry's stage histograms.
class StageRecorder {
 public:
  explicit StageRecorder(MetricsRegistry& metrics);

  /// All four spans are real.
  void completed(const StageTimeline& t);
  /// Failed (a fault during batch formation or inference) or expired (shed
  /// at batch formation): queue-wait is the only trustworthy span
  /// (infer_start/infer_end may never have been taken), so only it records.
  void unserved(const StageTimeline& t);

 private:
  Histogram& queue_wait_;
  Histogram& batch_formation_;
  Histogram& infer_;
  Histogram& total_;
};

}  // namespace itask::runtime
