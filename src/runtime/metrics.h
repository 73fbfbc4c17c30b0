// Serving-runtime metrics: atomic counters and streaming latency histograms
// with quantile snapshots, collected in a named registry.
//
// Histograms are geometric-bucket streaming estimators: record() is O(1) and
// never stores individual samples, so a server can run indefinitely; p50/p95/
// p99 come from the bucket counts (quantile error is bounded by the bucket
// growth factor, ~12% with the default 1.25).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace itask::runtime {

/// Monotonic event counter, safe to increment from any thread.
class Counter {
 public:
  void increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Streaming histogram over positive values (microseconds by convention).
class Histogram {
 public:
  /// Buckets are geometric: [min_value * growth^i, min_value * growth^(i+1)).
  explicit Histogram(double min_value = 1.0, double max_value = 1e8,
                     double growth = 1.25);

  /// Records one sample. Values below min_value clamp into bucket 0; values
  /// above the top bucket saturate into the last bucket (never index out of
  /// range). Non-finite input is clamped too — NaN records as 0, ±inf as the
  /// extreme finite double — so one bad sample can't poison mean/min/max.
  void record(double value);

  struct Bucket {
    double upper = 0.0;  // exclusive upper bound of the bucket
    int64_t count = 0;
  };

  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Non-empty buckets in ascending upper-bound order. Invariant (taken
    /// under one lock, asserted by the multi-producer consistency test):
    /// count == Σ buckets[i].count, and min <= mean <= max when count > 0.
    std::vector<Bucket> buckets;
  };

  /// Consistent point-in-time view (count/sum/mean/buckets exact and
  /// mutually consistent; quantiles bucketed). An empty histogram reports
  /// all-zero fields, never a bucket bound or NaN.
  Snapshot snapshot() const;

 private:
  int64_t bucket_of(double value) const;
  /// Upper bound of bucket i — the reported quantile value.
  double bucket_upper(int64_t i) const;

  double min_value_;
  double inv_log_growth_;
  double growth_;
  mutable std::mutex mutex_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

/// Point-in-time copy of a whole registry, in name order — the input to the
/// exposition formats (runtime/exposition.h). Counters and each histogram
/// are individually consistent; the registry is read under one lock so the
/// name set is a single point in time.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};

/// Merges per-shard registry snapshots into one fleet-level view: counters
/// with the same name sum; histograms with the same name merge bucket-wise
/// (counts and sums add, min/max combine, p50/p95/p99 recomputed from the
/// merged buckets by the one quantile rule Histogram::snapshot uses). All
/// inputs must come from identically configured histograms — bucket upper
/// bounds are matched exactly, which holds for the default geometry every
/// runtime registry uses. The result feeds the same exposition formats as a
/// single registry's snapshot (the fleet's merged Prometheus scrape).
RegistrySnapshot merge_snapshots(const std::vector<RegistrySnapshot>& parts);

/// Named metrics for one server instance. counter()/histogram() create on
/// first use and return stable references usable without further locking.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Formatted multi-line report (counters, then histogram quantiles).
  std::string report() const;

  /// Machine-readable copy of every metric (see RegistrySnapshot).
  RegistrySnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace itask::runtime
