#include "runtime/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "tensor/tensor.h"

namespace itask::runtime {

Histogram::Histogram(double min_value, double max_value, double growth)
    : min_value_(min_value),
      inv_log_growth_(1.0 / std::log(growth)),
      growth_(growth) {
  ITASK_CHECK(min_value > 0.0 && max_value > min_value && growth > 1.0,
              "Histogram: need 0 < min_value < max_value and growth > 1");
  const auto num_buckets = static_cast<int64_t>(
      std::ceil(std::log(max_value / min_value) * inv_log_growth_));
  buckets_.assign(static_cast<size_t>(num_buckets) + 1, 0);
}

int64_t Histogram::bucket_of(double value) const {
  // The !(…) form sends NaN to bucket 0 instead of through std::log.
  if (!(value > min_value_)) return 0;
  const double index = std::log(value / min_value_) * inv_log_growth_;
  const int64_t last = static_cast<int64_t>(buckets_.size()) - 1;
  // Saturate while still a double: casting an out-of-range double (a sample
  // far above the top bucket, or +inf) to int64_t is UB and indexed out of
  // the bucket array before this guard.
  if (index >= static_cast<double>(last)) return last;
  return static_cast<int64_t>(index);
}

double Histogram::bucket_upper(int64_t i) const {
  return min_value_ * std::pow(growth_, static_cast<double>(i + 1));
}

void Histogram::record(double value) {
  // Clamp non-finite and negative samples up front: NaN → 0, ±inf → the
  // finite extremes. Keeps sum/mean/min/max finite and the snapshot
  // invariants (min <= mean <= max) intact whatever a caller feeds in.
  if (std::isnan(value)) value = 0.0;
  value = std::clamp(value, 0.0, std::numeric_limits<double>::max());
  std::lock_guard<std::mutex> lock(mutex_);
  ++buckets_[static_cast<size_t>(bucket_of(value))];
  sum_ += value;
  if (count_ == 0 || value < min_seen_) min_seen_ = value;
  if (count_ == 0 || value > max_seen_) max_seen_ = value;
  ++count_;
}

namespace {

// The one bucketed quantile rule, for a live histogram's snapshot and a
// merged one alike: the upper bound of the bucket holding the
// ceil(q*count)-th sample, clamped into the observed [min, max] so tiny
// histograms don't report values outside the observed range. `buckets`
// lists only non-empty buckets; an empty one never satisfies seen >= rank,
// so skipping them changes no quantile.
double merged_quantile(const std::vector<Histogram::Bucket>& buckets, double q,
                       int64_t count, double min_seen, double max_seen) {
  const auto rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  int64_t seen = 0;
  for (const Histogram::Bucket& b : buckets) {
    seen += b.count;
    if (seen >= rank) return std::clamp(b.upper, min_seen, max_seen);
  }
  return max_seen;
}

}  // namespace

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.count = count_;
  if (count_ == 0) return s;  // all-zero, nothing bucket-derived
  s.sum = sum_;
  s.mean = sum_ / static_cast<double>(count_);
  s.min = min_seen_;
  s.max = max_seen_;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] > 0) {
      s.buckets.push_back(
          Bucket{bucket_upper(static_cast<int64_t>(i)), buckets_[i]});
    }
  }
  s.p50 = merged_quantile(s.buckets, 0.50, s.count, s.min, s.max);
  s.p95 = merged_quantile(s.buckets, 0.95, s.count, s.min, s.max);
  s.p99 = merged_quantile(s.buckets, 0.99, s.count, s.min, s.max);
  return s;
}

RegistrySnapshot merge_snapshots(const std::vector<RegistrySnapshot>& parts) {
  std::map<std::string, int64_t> counters;
  struct Acc {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::map<double, int64_t> buckets;  // upper bound → merged count
  };
  std::map<std::string, Acc> histograms;
  for (const RegistrySnapshot& part : parts) {
    for (const auto& [name, value] : part.counters) counters[name] += value;
    for (const auto& [name, s] : part.histograms) {
      Acc& acc = histograms[name];
      if (s.count > 0) {
        if (acc.count == 0 || s.min < acc.min) acc.min = s.min;
        if (acc.count == 0 || s.max > acc.max) acc.max = s.max;
      }
      acc.count += s.count;
      acc.sum += s.sum;
      for (const Histogram::Bucket& b : s.buckets) acc.buckets[b.upper] += b.count;
    }
  }
  RegistrySnapshot out;
  out.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    out.counters.emplace_back(name, value);
  }
  out.histograms.reserve(histograms.size());
  for (const auto& [name, acc] : histograms) {
    Histogram::Snapshot s;
    s.count = acc.count;
    if (acc.count > 0) {
      s.sum = acc.sum;
      s.mean = acc.sum / static_cast<double>(acc.count);
      s.min = acc.min;
      s.max = acc.max;
      s.buckets.reserve(acc.buckets.size());
      for (const auto& [upper, count] : acc.buckets) {
        s.buckets.push_back(Histogram::Bucket{upper, count});
      }
      s.p50 = merged_quantile(s.buckets, 0.50, s.count, s.min, s.max);
      s.p95 = merged_quantile(s.buckets, 0.95, s.count, s.min, s.max);
      s.p99 = merged_quantile(s.buckets, 0.99, s.count, s.min, s.max);
    }
    out.histograms.emplace_back(name, std::move(s));
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h->snapshot());
  }
  return out;
}

std::string MetricsRegistry::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << ": " << c->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    out << name << ": count " << s.count << " mean " << s.mean << " p50 "
        << s.p50 << " p95 " << s.p95 << " p99 " << s.p99 << " max " << s.max
        << '\n';
  }
  return out.str();
}

}  // namespace itask::runtime
