#include "runtime/trace.h"

namespace itask::runtime {

const char* stage_histogram_name(Stage s) {
  switch (s) {
    case Stage::kQueueWait: return "stage_queue_wait_us";
    case Stage::kBatchFormation: return "stage_batch_formation_us";
    case Stage::kInfer: return "stage_infer_us";
    case Stage::kTotal: return "stage_total_us";
  }
  return "?";
}

double span_us(int64_t from_us, int64_t to_us) {
  return to_us > from_us ? static_cast<double>(to_us - from_us) : 0.0;
}

StageRecorder::StageRecorder(MetricsRegistry& metrics)
    : queue_wait_(metrics.histogram(stage_histogram_name(Stage::kQueueWait))),
      batch_formation_(
          metrics.histogram(stage_histogram_name(Stage::kBatchFormation))),
      infer_(metrics.histogram(stage_histogram_name(Stage::kInfer))),
      total_(metrics.histogram(stage_histogram_name(Stage::kTotal))) {}

void StageRecorder::completed(const StageTimeline& t) {
  queue_wait_.record(span_us(t.admitted_us, t.picked_us));
  batch_formation_.record(span_us(t.picked_us, t.infer_start_us));
  infer_.record(span_us(t.infer_start_us, t.infer_end_us));
  total_.record(span_us(t.admitted_us, t.infer_end_us));
}

void StageRecorder::unserved(const StageTimeline& t) {
  queue_wait_.record(span_us(t.admitted_us, t.picked_us));
}

}  // namespace itask::runtime
