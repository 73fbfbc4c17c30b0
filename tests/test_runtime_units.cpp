// Fixture-free runtime unit tests: BoundedQueue semantics (micro-batch
// close rules, backpressure, drain-on-close, all-or-nothing group push),
// metrics quantiles and snapshot merging, the stage-trace helpers, the
// Prometheus/JSON exposition, the fleet's rendezvous router and cross-view
// fusion. None of them needs a trained deployment, so ctest discovers them
// one by one; CI's TSan job runs this whole binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "detect/fusion.h"
#include "detect/nms.h"
#include "runtime/exposition.h"
#include "runtime/fleet.h"
#include "runtime/metrics.h"
#include "runtime/queue.h"
#include "runtime/trace.h"
#include "tensor/arena.h"
#include "tensor/profile.h"
#include "tensor/rng.h"

namespace itask::runtime {
namespace {

constexpr auto kNoWait = std::chrono::microseconds(0);
constexpr auto kLongWait = std::chrono::microseconds(200000);

// ---------------------------------------------------------------- queue ----

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // backpressure: full queue rejects
  EXPECT_EQ(q.size(), 2);
  const auto batch = q.pop_batch(8, kNoWait);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(q.try_push(3));  // capacity freed, admission resumes
}

TEST(BoundedQueue, RejectsAfterClose) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  q.close();
  EXPECT_FALSE(q.try_push(2));
}

TEST(BoundedQueue, BatchClosesAtMaxItems) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 7; ++i) q.try_push(i);
  const auto batch = q.pop_batch(4, kLongWait);
  ASSERT_EQ(batch.size(), 4u);  // size rule fires before the deadline
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
  EXPECT_EQ(q.size(), 3);
}

TEST(BoundedQueue, PopIntoCallerBufferReusesStorageNoAlloc) {
  // The allocation-free overload the worker loop uses: the caller owns the
  // batch vector, pop_batch clears and refills it, and once the buffer has
  // grown to max_items a steady-state pop performs zero heap allocations.
  BoundedQueue<int> q(16);
  std::vector<int> batch;
  batch.reserve(4);  // warm: capacity covers every batch below
  for (int i = 0; i < 6; ++i) q.try_push(i);
  const int64_t before = allocdebug::thread_alloc_count();
  q.pop_batch(4, kNoWait, batch);
  EXPECT_EQ(allocdebug::thread_alloc_count(), before);
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)], i);
  q.pop_batch(4, kNoWait, batch);  // refill clears the previous contents
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 4);
  EXPECT_EQ(batch[1], 5);
  q.close();
  q.pop_batch(4, kNoWait, batch);  // closed and drained → empty batch
  EXPECT_TRUE(batch.empty());
}

TEST(BoundedQueue, BatchClosesAtDeadline) {
  BoundedQueue<int> q(16);
  q.try_push(42);
  const auto start = std::chrono::steady_clock::now();
  const auto batch = q.pop_batch(8, std::chrono::microseconds(2000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 1u);  // deadline rule: don't wait forever for 8
  EXPECT_EQ(batch[0], 42);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(BoundedQueue, DrainsAfterCloseThenSignalsExit) {
  BoundedQueue<int> q(8);
  q.try_push(1);
  q.try_push(2);
  q.close();
  const auto batch = q.pop_batch(8, kNoWait);
  ASSERT_EQ(batch.size(), 2u);  // close() does not drop admitted items
  const auto empty = q.pop_batch(8, kNoWait);
  EXPECT_TRUE(empty.empty());  // closed AND drained → exit signal
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    const auto batch = q.pop_batch(4, kLongWait);
    EXPECT_TRUE(batch.empty());
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(returned);
}

namespace {

// Polls `done` until it holds or `limit` passes and returns its last value:
// bounded, so a broken queue fails a test instead of hanging it.
template <typename Pred>
bool eventually(Pred done,
                std::chrono::milliseconds limit = std::chrono::seconds(5)) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!done() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return done();
}

}  // namespace

// In the window tests below, "the queue is empty again" after a push means a
// consumer took the item — and pop_batch opens its window in the same
// critical section as that take, so from then on the window is open.

TEST(BoundedQueue, ArrivalsJoinTheOpenWindow) {
  // Two idle consumers; the first item opens one window. Items pushed while
  // it is open join that batch: they neither wake the second consumer nor
  // let it open a competing window.
  BoundedQueue<int> q(16);
  std::vector<int> batches[2];
  std::atomic<int> returned{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&, c] {
      q.pop_batch(8, kLongWait, batches[c]);
      ++returned;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // both idle
  ASSERT_TRUE(q.try_push(1));
  EXPECT_TRUE(eventually([&] { return q.size() == 0; }));
  ASSERT_TRUE(q.try_push(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(q.try_push(3));
  // The window closes at its deadline; only then close the queue, which
  // releases the consumer that never got an item.
  EXPECT_TRUE(eventually([&] { return returned.load() > 0; }));
  q.close();
  for (auto& t : consumers) t.join();
  const size_t owner = batches[0].empty() ? 1 : 0;
  EXPECT_EQ(batches[owner], (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(batches[1 - owner].empty());
}

TEST(BoundedQueue, CloseEndsTheOpenWindow) {
  BoundedQueue<int> q(4);
  std::vector<int> batch;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    q.pop_batch(8, std::chrono::seconds(60), batch);
    returned = true;
  });
  ASSERT_TRUE(q.try_push(7));
  EXPECT_TRUE(eventually([&] { return q.size() == 0; }));
  q.close();
  EXPECT_TRUE(eventually([&] { return returned.load(); }));
  consumer.join();
  EXPECT_EQ(batch, std::vector<int>{7});
}

TEST(BoundedQueue, FillingTheBatchEndsTheWindowEarly) {
  BoundedQueue<int> q(8);
  std::vector<int> batch;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    q.pop_batch(4, std::chrono::seconds(60), batch);
    returned = true;
  });
  ASSERT_TRUE(q.try_push(0));
  EXPECT_TRUE(eventually([&] { return q.size() == 0; }));
  std::vector<int> rest{1, 2, 3};
  ASSERT_EQ(q.push_all(rest), PushResult::kOk);
  EXPECT_TRUE(eventually([&] { return returned.load(); }));
  q.close();
  consumer.join();
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedQueue, WindowLeftoversWakeAnIdleConsumer) {
  // The push that fills the owner's batch brings more than it has room
  // for: the owner takes its share and hands the rest to the idle consumer,
  // whom no push woke while the window was open.
  BoundedQueue<int> q(8);
  std::vector<int> batches[2];
  std::atomic<int> returned{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&, c] {
      q.pop_batch(2, std::chrono::seconds(60), batches[c]);
      ++returned;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // both idle
  ASSERT_TRUE(q.try_push(0));
  EXPECT_TRUE(eventually([&] { return q.size() == 0; }));
  std::vector<int> rest{1, 2, 3};
  ASSERT_EQ(q.push_all(rest), PushResult::kOk);
  EXPECT_TRUE(eventually([&] { return returned.load() == 2; }))
      << "the leftovers woke nobody";
  q.close();
  for (auto& t : consumers) t.join();
  ASSERT_FALSE(batches[0].empty());
  ASSERT_FALSE(batches[1].empty());
  const size_t owner = batches[0].front() == 0 ? 0 : 1;
  EXPECT_EQ(batches[owner], (std::vector<int>{0, 1}));
  EXPECT_EQ(batches[1 - owner], (std::vector<int>{2, 3}));
}

TEST(BoundedQueue, ConcurrentProducersLoseNothing) {
  BoundedQueue<int> q(1024);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 128;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.try_push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  std::set<int> seen;
  while (true) {
    const auto batch = q.pop_batch(32, kNoWait);
    if (batch.empty()) break;
    seen.insert(batch.begin(), batch.end());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
}

TEST(BoundedQueue, ValidatesArguments) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
  BoundedQueue<int> q(1);
  EXPECT_THROW(q.pop_batch(0, kNoWait), std::invalid_argument);
}

namespace {

// Models the worst legal moved-from state: a payload whose move keeps the
// shared buffer (the standard only promises "valid but unspecified"). The
// queue must not rely on T's move releasing anything — it has to reset the
// slot itself.
struct StickyPayload {
  std::shared_ptr<int> buffer;

  StickyPayload() = default;
  explicit StickyPayload(int v) : buffer(std::make_shared<int>(v)) {}
  StickyPayload(const StickyPayload&) = default;
  StickyPayload& operator=(const StickyPayload&) = default;
  StickyPayload(StickyPayload&& other) noexcept : buffer(other.buffer) {}
  StickyPayload& operator=(StickyPayload&& other) noexcept {
    buffer = other.buffer;  // deliberately keeps the source's reference
    return *this;
  }
};

}  // namespace

TEST(BoundedQueue, PopReleasesSlotResourcesAtPopNotNextPush) {
  // The ring-slot pinning bug: pop_batch used to move a slot out and leave
  // the moved-from shell in the ring, so whatever it still referenced (for
  // the runtime: a request's image Tensor and promise state) stayed alive
  // until a LATER push happened to overwrite that slot — up to `capacity`
  // requests pinned while the queue idles. The fix resets the slot at pop.
  BoundedQueue<StickyPayload> q(4);
  StickyPayload item(7);
  std::weak_ptr<int> observer = item.buffer;
  ASSERT_TRUE(q.try_push(std::move(item)));
  item.buffer.reset();  // drop the producer's (sticky-move) reference
  EXPECT_EQ(observer.use_count(), 1);  // only the ring slot holds it

  auto batch = q.pop_batch(4, kNoWait);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(*batch[0].buffer, 7);
  // Released at pop: the popped element must be the SOLE owner now — no
  // moved-from shell left in the ring still referencing the buffer.
  EXPECT_EQ(observer.use_count(), 1);
  batch.clear();
  EXPECT_TRUE(observer.expired())
      << "the queue kept a request's buffer alive after it was popped";
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 4000);
}

TEST(Metrics, HistogramQuantilesBracketTruth) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000);
  EXPECT_NEAR(s.mean, 500.5, 1e-6);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 1000.0);
  // Geometric buckets (growth 1.25) bound quantile error to ~25% upward.
  EXPECT_GE(s.p50, 500.0);
  EXPECT_LE(s.p50, 500.0 * 1.3);
  EXPECT_GE(s.p95, 950.0);
  EXPECT_LE(s.p99, 1000.0);  // clamped by observed max
}

TEST(Metrics, EmptyHistogramSnapshotIsZero) {
  Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  // Every field is exactly zero — never NaN (0/0 mean), never a bucket
  // bound leaking out of an empty histogram.
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_TRUE(s.buckets.empty());
}

TEST(Metrics, SingleSampleCollapsesQuantiles) {
  Histogram h;
  h.record(137.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.min, 137.0);
  EXPECT_EQ(s.max, 137.0);
  EXPECT_EQ(s.mean, 137.0);
  // One sample: every quantile IS that sample (clamped by observed
  // min/max), not the bucket's upper bound.
  EXPECT_EQ(s.p50, 137.0);
  EXPECT_EQ(s.p95, 137.0);
  EXPECT_EQ(s.p99, 137.0);
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0].count, 1);
}

TEST(Metrics, PathologicalSamplesSaturateWithoutOverflow) {
  // Samples far above the top bucket (or non-finite) must saturate into the
  // last bucket — never cast an out-of-range double to an index — and must
  // keep every snapshot field finite.
  Histogram h;  // default top bucket ~1e8
  h.record(1e30);
  h.record(std::numeric_limits<double>::infinity());
  h.record(-std::numeric_limits<double>::infinity());  // clamps to 0
  h.record(std::numeric_limits<double>::quiet_NaN());  // records as 0
  h.record(50.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 5);
  int64_t bucket_total = 0;
  for (const auto& b : s.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, std::numeric_limits<double>::max());  // +inf clamped
  EXPECT_TRUE(std::isfinite(s.sum));
  EXPECT_TRUE(std::isfinite(s.mean));
  EXPECT_TRUE(std::isfinite(s.p50));
  EXPECT_TRUE(std::isfinite(s.p95));
  EXPECT_TRUE(std::isfinite(s.p99));
  // Both oversized samples landed in the saturation bucket, whose bound is
  // near the configured max_value — not at 1e30.
  EXPECT_EQ(s.buckets.back().count, 2);
  EXPECT_LT(s.buckets.back().upper, 1e9);
}

TEST(Metrics, SnapshotConsistentUnderConcurrentRecords) {
  // Multi-producer record() racing snapshot(): every snapshot must be an
  // internally consistent point in time — count == Σ bucket counts and
  // min <= mean <= max — and the final count must equal what was recorded.
  // Run under -DITASK_SANITIZE=thread in CI.
  Histogram h;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, &running, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        h.record(static_cast<double>((w * kPerWriter + i) % 977) + 0.5);
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    const auto s = h.snapshot();
    int64_t bucket_total = 0;
    for (const auto& b : s.buckets) bucket_total += b.count;
    ASSERT_EQ(bucket_total, s.count);
    if (s.count > 0) {
      ASSERT_LE(s.min, s.mean);
      ASSERT_LE(s.mean, s.max);
    }
  }
  for (auto& t : writers) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
  int64_t bucket_total = 0;
  for (const auto& b : s.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(Metrics, RegistrySnapshotIsOrderedAndComplete) {
  MetricsRegistry m;
  m.counter("b_counter").increment(2);
  m.counter("a_counter").increment(1);
  m.histogram("lat").record(10.0);
  const RegistrySnapshot s = m.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "a_counter");  // name order, stable output
  EXPECT_EQ(s.counters[0].second, 1);
  EXPECT_EQ(s.counters[1].first, "b_counter");
  EXPECT_EQ(s.counters[1].second, 2);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].first, "lat");
  EXPECT_EQ(s.histograms[0].second.count, 1);
}

// ----------------------------------------------------- stage trace units ----

TEST(StageTrace, SpanClampsNegativeDurations) {
  EXPECT_EQ(span_us(50, 100), 50.0);
  EXPECT_EQ(span_us(100, 100), 0.0);
  // Defensive clamp: skewed/reordered clock readings become 0, never a
  // negative duration poisoning a histogram.
  EXPECT_EQ(span_us(100, 50), 0.0);
}

TEST(StageTrace, StageHistogramNamesAreStable) {
  EXPECT_STREQ(stage_histogram_name(Stage::kQueueWait), "stage_queue_wait_us");
  EXPECT_STREQ(stage_histogram_name(Stage::kBatchFormation),
               "stage_batch_formation_us");
  EXPECT_STREQ(stage_histogram_name(Stage::kInfer), "stage_infer_us");
  EXPECT_STREQ(stage_histogram_name(Stage::kTotal), "stage_total_us");
}

TEST(StageTrace, TerminalKindDecidesWhichStagesRecord) {
  MetricsRegistry m;
  StageRecorder rec(m);
  StageTimeline t;
  t.admitted_us = 100;
  t.picked_us = 350;
  t.infer_start_us = 360;
  t.infer_end_us = 400;
  rec.completed(t);
  rec.unserved(t);  // a failed request
  rec.unserved(t);  // an expired request
  // failed/expired requests never finished inference: they contribute to
  // queue-wait only, so the infer/total histograms hold true latencies.
  EXPECT_EQ(m.histogram("stage_queue_wait_us").snapshot().count, 3);
  EXPECT_EQ(m.histogram("stage_batch_formation_us").snapshot().count, 1);
  EXPECT_EQ(m.histogram("stage_infer_us").snapshot().count, 1);
  EXPECT_EQ(m.histogram("stage_total_us").snapshot().count, 1);
  EXPECT_EQ(m.histogram("stage_queue_wait_us").snapshot().max, 250.0);
  EXPECT_EQ(m.histogram("stage_total_us").snapshot().max, 300.0);
}

// ----------------------------------------------------------- exposition ----

TEST(Exposition, PrometheusGoldenRender) {
  profile::reset();  // no kernel block: snapshot must be clean of other tests
  MetricsRegistry m;
  m.counter("bad-name").increment(1);  // sanitized to bad_name
  m.counter("batches").increment(2);
  m.histogram("lat").record(2.0);  // bucket 3 of growth 1.25: upper 2.44141
  const std::string expected =
      "# TYPE itask_bad_name counter\n"
      "itask_bad_name 1\n"
      "# TYPE itask_batches counter\n"
      "itask_batches 2\n"
      "# TYPE itask_lat histogram\n"
      "itask_lat_bucket{le=\"2.44141\"} 1\n"
      "itask_lat_bucket{le=\"+Inf\"} 1\n"
      "itask_lat_sum 2\n"
      "itask_lat_count 1\n"
      "itask_lat_p50 2\n"
      "itask_lat_p95 2\n"
      "itask_lat_p99 2\n";
  EXPECT_EQ(to_prometheus(collect(m)), expected);
}

TEST(Exposition, JsonSnapshotStructure) {
  profile::reset();
  MetricsRegistry m;
  m.counter("requests_completed").increment(3);
  m.histogram("lat").record(2.0);
  const std::string json = to_json(collect(m));
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"requests_completed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"lat\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [[2.44141, 1]]"), std::string::npos);
  // Hooks off ⇒ no kernel_profile block at all.
  EXPECT_EQ(json.find("kernel_profile"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

TEST(Exposition, KernelSectionsAppearOnlyWhenEnabled) {
  profile::reset();
  MetricsRegistry m;
  const float a[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float b[4] = {5.0f, 6.0f, 7.0f, 8.0f};
  float c[4] = {};
  gemm::gemm_bt(a, b, c, 2, 2, 2);
  EXPECT_TRUE(profile::snapshot().empty());  // hooks off: nothing recorded
  profile::set_enabled(true);
  gemm::gemm_bt(a, b, c, 2, 2, 2);
  profile::set_enabled(false);
  const std::string text = to_prometheus(collect(m));
#ifdef ITASK_NO_PROFILING
  // Compiled out: enabling the hooks records no section and no counter, and
  // the exposition carries no kernel_profile line.
  EXPECT_TRUE(profile::snapshot().empty());
  EXPECT_TRUE(profile::counter_snapshot().empty());
  EXPECT_EQ(text.find("itask_kernel_profile_"), std::string::npos);
#else
  EXPECT_NE(text.find("itask_kernel_profile_calls{section=\"gemm_pack\"}"),
            std::string::npos);
  EXPECT_NE(text.find("itask_kernel_profile_calls{section=\"gemm_kernel\"}"),
            std::string::npos);
  EXPECT_NE(text.find("itask_kernel_profile_ns{section=\"gemm_kernel\"}"),
            std::string::npos);
#endif
  profile::reset();
  EXPECT_TRUE(profile::snapshot().empty());
}

TEST(Exposition, PeriodicReporterFlushesFinalReportOnStop) {
  profile::reset();
  MetricsRegistry m;
  m.counter("x").increment(5);
  std::mutex mu;
  std::vector<std::string> renders;
  PeriodicReporter reporter(m, std::chrono::milliseconds(5),
                            [&](const std::string& s) {
                              std::lock_guard<std::mutex> lock(mu);
                              renders.push_back(s);
                            });
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  m.counter("x").increment(2);  // happens-before stop(): must reach the sink
  reporter.stop();
  reporter.stop();  // idempotent
  ASSERT_FALSE(renders.empty());
  // stop() renders once more *after* observing the stop flag, so the last
  // report always contains every record that happened before stop().
  EXPECT_NE(renders.back().find("itask_x 7"), std::string::npos);
  const size_t after_stop = renders.size();
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  EXPECT_EQ(renders.size(), after_stop);  // thread is really gone
}

TEST(Exposition, ReporterValidatesArguments) {
  MetricsRegistry m;
  EXPECT_THROW(
      PeriodicReporter(m, std::chrono::milliseconds(0), [](const std::string&) {}),
      std::invalid_argument);
  EXPECT_THROW(PeriodicReporter(m, std::chrono::milliseconds(5), nullptr),
               std::invalid_argument);
}

TEST(Metrics, RegistryReturnsStableNamedInstances) {
  MetricsRegistry m;
  Counter& a = m.counter("x");
  a.increment(3);
  EXPECT_EQ(&m.counter("x"), &a);
  EXPECT_EQ(m.counter("x").value(), 3);
  m.histogram("lat").record(10.0);
  const std::string report = m.report();
  EXPECT_NE(report.find("x: 3"), std::string::npos);
  EXPECT_NE(report.find("lat:"), std::string::npos);
}

// --------------------------------------------------------- metrics merge ----

TEST(Metrics, MergeSnapshotsSumsCountersAndMergesHistogramBuckets) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("x").increment(3);
  b.counter("x").increment(4);
  b.counter("y").increment(1);
  for (const double v : {10.0, 20.0, 30.0}) a.histogram("lat").record(v);
  for (const double v : {1000.0, 2000.0}) b.histogram("lat").record(v);
  b.histogram("only_b").record(5.0);

  const RegistrySnapshot merged = merge_snapshots({a.snapshot(), b.snapshot()});
  const auto counter = [&merged](const char* name) -> int64_t {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_EQ(counter("x"), 7);
  EXPECT_EQ(counter("y"), 1);

  const auto histogram =
      [&merged](const char* name) -> Histogram::Snapshot {
    for (const auto& [n, s] : merged.histograms) {
      if (n == name) return s;
    }
    return {};
  };
  const Histogram::Snapshot lat = histogram("lat");
  EXPECT_EQ(lat.count, 5);
  EXPECT_DOUBLE_EQ(lat.sum, 3060.0);
  EXPECT_DOUBLE_EQ(lat.mean, 612.0);
  EXPECT_DOUBLE_EQ(lat.min, 10.0);
  EXPECT_DOUBLE_EQ(lat.max, 2000.0);
  int64_t bucketed = 0;
  double prev_upper = 0.0;
  for (const Histogram::Bucket& bucket : lat.buckets) {
    EXPECT_GT(bucket.upper, prev_upper);  // ascending, deduplicated
    prev_upper = bucket.upper;
    bucketed += bucket.count;
  }
  EXPECT_EQ(bucketed, lat.count);
  // p50 is the 3rd of {10,20,30,1000,2000}: the 30-bucket's upper bound
  // (growth 1.25 → within 25% above 30), never a value from one part only.
  EXPECT_GE(lat.p50, 30.0);
  EXPECT_LE(lat.p50, 40.0);
  EXPECT_DOUBLE_EQ(lat.p99, 2000.0);  // clamped into the observed range
  EXPECT_EQ(histogram("only_b").count, 1);
}

TEST(Metrics, MergeSnapshotsOfOnePartIsIdentity) {
  MetricsRegistry m;
  m.counter("c").increment(9);
  for (int i = 1; i <= 100; ++i) m.histogram("h").record(static_cast<double>(i));
  const RegistrySnapshot original = m.snapshot();
  const RegistrySnapshot merged = merge_snapshots({original});
  ASSERT_EQ(merged.counters.size(), original.counters.size());
  EXPECT_EQ(merged.counters[0], original.counters[0]);
  ASSERT_EQ(merged.histograms.size(), 1u);
  const Histogram::Snapshot& got = merged.histograms[0].second;
  const Histogram::Snapshot& want = original.histograms[0].second;
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);
  EXPECT_DOUBLE_EQ(got.min, want.min);
  EXPECT_DOUBLE_EQ(got.max, want.max);
  // Same buckets in → same bucketed quantiles out (identical rule).
  EXPECT_DOUBLE_EQ(got.p50, want.p50);
  EXPECT_DOUBLE_EQ(got.p95, want.p95);
  EXPECT_DOUBLE_EQ(got.p99, want.p99);
  ASSERT_EQ(got.buckets.size(), want.buckets.size());

  const RegistrySnapshot empty = merge_snapshots({});
  EXPECT_TRUE(empty.counters.empty());
  EXPECT_TRUE(empty.histograms.empty());
}

// ---------------------------------------------------------- fleet router ----

TEST(FleetRouter, RendezvousPlacementIsDeterministicAndCoversAllShards) {
  const FleetRouter router(4, 2);
  EXPECT_EQ(router.shards(), 4);
  EXPECT_EQ(router.replication(), 2);
  std::vector<int64_t> primary_load(4, 0);
  for (int64_t t = 0; t < 64; ++t) {
    const kg::TaskId id{t};
    const std::vector<int64_t> replicas = router.replicas(id);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_NE(replicas[0], replicas[1]);  // distinct shards
    for (const int64_t s : replicas) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, 4);
    }
    // Placement is a pure function of (task, geometry): stable across calls
    // and across router instances.
    EXPECT_EQ(router.replicas(id), replicas);
    EXPECT_EQ(FleetRouter(4, 2).replicas(id), replicas);
    ++primary_load[static_cast<size_t>(replicas[0])];
  }
  // Rendezvous balance: every shard is primary for some tasks.
  for (int64_t s = 0; s < 4; ++s) {
    EXPECT_GT(primary_load[static_cast<size_t>(s)], 0) << "shard " << s;
  }
}

TEST(FleetRouter, RouteCyclesDeterministicallyThroughReplicaSlots) {
  const FleetRouter router(4, 2);
  const kg::TaskId id{11};
  const std::vector<int64_t> replicas = router.replicas(id);
  EXPECT_EQ(router.route(id, 0), replicas[0]);
  EXPECT_EQ(router.route(id, 1), replicas[1]);
  EXPECT_EQ(router.route(id, 2), replicas[0]);  // period == replication
  const FleetRouter single(4, 1);
  EXPECT_EQ(single.route(id, 0), single.route(id, 7));  // strict affinity
}

TEST(FleetRouter, GrowingTheFleetOnlyMovesTasksOntoTheNewShard) {
  // The rendezvous property that makes resharding cheap: adding shard N
  // never moves a task between the existing shards — a task either keeps
  // its primary or rendezvouses onto the new shard.
  const FleetRouter before(4, 1);
  const FleetRouter after(5, 1);
  int64_t moved = 0;
  for (int64_t t = 0; t < 128; ++t) {
    const kg::TaskId id{t};
    const int64_t old_primary = before.replicas(id)[0];
    const int64_t new_primary = after.replicas(id)[0];
    if (new_primary != old_primary) {
      EXPECT_EQ(new_primary, 4) << task_id_to_string(id);
      ++moved;
    }
  }
  // ~1/5 of tasks should rendezvous onto the new shard — movement happens,
  // but never between survivors.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 64);
}

TEST(FleetRouter, ValidatesAndClamps) {
  EXPECT_THROW(FleetRouter(0, 1), std::invalid_argument);
  EXPECT_THROW(FleetRouter(2, 0), std::invalid_argument);
  EXPECT_EQ(FleetRouter(2, 8).replication(), 2);  // clamped to shards
  const FleetRouter router(2, 1);
  EXPECT_THROW(router.route(kg::TaskId{1}, -1), std::invalid_argument);
  EXPECT_THROW(kg::task_route_hash(kg::TaskId{}, 0), std::invalid_argument);
  // Distinct salts decorrelate: one task does not hash identically across
  // shard salts (the property rendezvous ranking rests on).
  EXPECT_NE(kg::task_route_hash(kg::TaskId{3}, 0),
            kg::task_route_hash(kg::TaskId{3}, 1));
}

// ------------------------------------------------------ cross-view fusion ----

// Synthetic detection for the fusion unit tests: everything fusion reads,
// with distinct per-field values so byte-identity checks are meaningful.
detect::Detection make_det(float confidence, int64_t cls, float cx, float cy,
                           float w, float h, int64_t cell = 0) {
  detect::Detection d;
  d.box = {cx, cy, w, h};
  d.cell = cell;
  d.predicted_class = cls;
  d.objectness = confidence * 0.9f;
  d.task_score = confidence * 0.8f;
  d.confidence = confidence;
  d.attr_probs = Tensor({2}, {confidence * 0.5f, 1.0f - confidence * 0.5f});
  d.class_probs = Tensor({3}, {0.1f, 0.2f, 0.7f});
  return d;
}

void expect_byte_identical_fused(const std::vector<detect::Detection>& a,
                                 const std::vector<detect::Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell, b[i].cell);
    EXPECT_EQ(a[i].predicted_class, b[i].predicted_class);
    EXPECT_EQ(a[i].objectness, b[i].objectness);
    EXPECT_EQ(a[i].task_score, b[i].task_score);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
    EXPECT_EQ(a[i].box.cx, b[i].box.cx);
    EXPECT_EQ(a[i].box.cy, b[i].box.cy);
    EXPECT_EQ(a[i].box.w, b[i].box.w);
    EXPECT_EQ(a[i].box.h, b[i].box.h);
  }
}

TEST(Fusion, InvariantToViewArrivalOrderAndEqualConfidenceShuffles) {
  // Three views of the same scene: a well-supported object near (8, 8), a
  // second object near (18, 6), and equal-confidence near-duplicates within
  // one view — the tie case an unstable order would scramble. Fused output
  // must be byte-identical under any permutation of views AND any
  // permutation of the detections inside each view.
  std::vector<std::vector<detect::Detection>> views(3);
  views[0] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f, 5),
              make_det(0.6f, 2, 18.0f, 6.0f, 4.0f, 4.0f, 7),
              make_det(0.6f, 2, 18.5f, 6.0f, 4.0f, 4.0f, 8)};  // equal conf
  views[1] = {make_det(0.8f, 1, 8.5f, 8.2f, 6.0f, 6.0f, 5),
              make_det(0.55f, 2, 18.2f, 6.1f, 4.0f, 4.0f, 7)};
  views[2] = {make_det(0.85f, 1, 7.8f, 8.1f, 6.2f, 6.0f, 5)};

  const detect::FusionOptions options;
  const auto baseline = detect::fuse_views(views, options);
  ASSERT_FALSE(baseline.empty());

  Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::vector<detect::Detection>> shuffled = views;
    rng.shuffle(shuffled);                           // view arrival order
    for (auto& view : shuffled) rng.shuffle(view);   // within-view order
    expect_byte_identical_fused(detect::fuse_views(shuffled, options),
                                baseline);
  }
}

TEST(Fusion, SupportDividesByViewCountAndMinViewsDropsPhantoms) {
  // An object seen by all 3 views keeps its confidence; a single-view
  // phantom is divided down by the missing evidence; min_views = 2 removes
  // it entirely.
  std::vector<std::vector<detect::Detection>> views(3);
  views[0] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f),
              make_det(0.9f, 2, 18.0f, 18.0f, 4.0f, 4.0f)};  // phantom
  views[1] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f)};
  views[2] = {make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f)};

  const auto fused = detect::fuse_views(views);
  ASSERT_EQ(fused.size(), 2u);
  // detection_order: the supported object (0.9) ranks above the phantom.
  EXPECT_EQ(fused[0].predicted_class, 1);
  EXPECT_FLOAT_EQ(fused[0].confidence, 0.9f);  // (0.9 * 3) / 3
  EXPECT_EQ(fused[1].predicted_class, 2);
  EXPECT_FLOAT_EQ(fused[1].confidence, 0.3f);  // (0.9 * 1) / 3
  // Identical per-view boxes: the weighted mean must reproduce them exactly.
  EXPECT_FLOAT_EQ(fused[0].box.cx, 8.0f);
  EXPECT_FLOAT_EQ(fused[0].box.w, 6.0f);

  detect::FusionOptions strict;
  strict.min_views = 2;
  const auto supported = detect::fuse_views(views, strict);
  ASSERT_EQ(supported.size(), 1u);
  EXPECT_EQ(supported[0].predicted_class, 1);
}

TEST(Fusion, SingleViewDegeneratesToNms) {
  // K = 1 must reproduce the single-view pipeline bit-for-bit: fusion is
  // NMS plus a division by K = 1. (min_views clamps to the view count, so
  // even min_views = 3 cannot drop everything.)
  std::vector<detect::Detection> view = {
      make_det(0.9f, 1, 8.0f, 8.0f, 6.0f, 6.0f, 5),
      make_det(0.7f, 1, 8.4f, 8.2f, 6.0f, 6.0f, 6),   // suppressed by NMS
      make_det(0.6f, 2, 18.0f, 6.0f, 4.0f, 4.0f, 7)};
  detect::FusionOptions options;
  options.min_views = 3;  // clamped to K = 1
  expect_byte_identical_fused(detect::fuse_views({view}, options),
                              detect::nms(view, options.nms_iou));
}

TEST(Fusion, JitteredViewsSeededCleanFirstViewAndValidation) {
  Tensor image({3, 4, 4});
  Rng fill(5);
  for (float& v : image.data()) v = fill.uniform(0.0f, 1.0f);

  const auto views = detect::jittered_views(image, 3, 0.05f, 77);
  ASSERT_EQ(views.size(), 3u);
  // View 0 is the clean image; later views differ (sigma > 0).
  EXPECT_EQ(views[0].data()[0], image.data()[0]);
  EXPECT_NE(views[1].data()[0], image.data()[0]);
  // Same (image, K, sigma, seed) → byte-identical views on every call: the
  // property that lets serial, single-server, and fleet paths materialize
  // the same group request.
  const auto again = detect::jittered_views(image, 3, 0.05f, 77);
  for (size_t v = 0; v < views.size(); ++v) {
    const auto a = views[v].data();
    const auto b = again[v].data();
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }

  EXPECT_THROW(detect::jittered_views(image, 0, 0.05f, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::jittered_views(image, 2, -1.0f, 1),
               std::invalid_argument);
  EXPECT_THROW(detect::fuse_views({}), std::invalid_argument);
  detect::FusionOptions bad;
  bad.merge_iou = 1.0f;
  EXPECT_THROW(detect::fuse_views({{}}, bad), std::invalid_argument);
  bad = {};
  bad.min_views = 0;
  EXPECT_THROW(detect::fuse_views({{}}, bad), std::invalid_argument);
}

TEST(BoundedQueue, PushAllAdmitsAtomicallyOrNotAtAll) {
  BoundedQueue<int> q(4);
  std::vector<int> three{1, 2, 3};
  EXPECT_EQ(q.push_all(three), PushResult::kOk);
  EXPECT_EQ(q.size(), 3);
  // 3 + 2 > 4: rejected whole, nothing enqueued, items left intact.
  std::vector<int> two{4, 5};
  EXPECT_EQ(q.push_all(two), PushResult::kFull);
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(two[0], 4);
  EXPECT_EQ(two[1], 5);
  // Exactly filling the remaining capacity is admitted.
  std::vector<int> one{6};
  EXPECT_EQ(q.push_all(one), PushResult::kOk);
  EXPECT_EQ(q.size(), 4);
  const auto batch = q.pop_batch(8, kNoWait);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[3], 6);
  q.close();
  std::vector<int> late{7};
  EXPECT_EQ(q.push_all(late), PushResult::kClosed);
  std::vector<int> empty;
  EXPECT_THROW(q.push_all(empty), std::invalid_argument);
}

}  // namespace
}  // namespace itask::runtime
