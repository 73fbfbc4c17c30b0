// Inference runtime tests over a real trained deployment: per-request
// determinism against the serial path, graceful shutdown without lost or
// duplicated requests, admission, faults, deadlines, snapshots, the arena
// hot path, the sharded fleet and K-view group requests, plus a
// multi-producer stress run mixing both configurations. The fixture-free
// unit suites (queue, metrics, exposition, stage trace, fleet router,
// fusion) live in test_runtime_units.cpp.
//
// Registered as ONE ctest entry (like test_core): the fixture trains a
// deployment once per process. Also run under -DITASK_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/itask.h"
#include "nn/attention.h"
#include "runtime/clock.h"
#include "runtime/exposition.h"
#include "runtime/fleet.h"
#include "runtime/metrics.h"
#include "runtime/queue.h"
#include "runtime/server.h"
#include "runtime/trace.h"
#include "tensor/arena.h"
#include "tensor/profile.h"
#include "tensor/rng.h"

namespace itask::runtime {
namespace {

using core::ConfigKind;
using core::Framework;
using core::FrameworkOptions;
using core::TaskHandle;

// --------------------------------------------------------------- server ----

FrameworkOptions fast_options() {
  FrameworkOptions o;
  o.corpus_size = 256;
  o.task_corpus_size = 128;
  o.multitask_corpus_size = 128;
  o.calibration_scenes = 8;
  o.teacher_training.epochs = 16;
  o.distillation.epochs = 18;
  o.multitask_distillation.epochs = 18;
  o.seed = 7;
  return o;
}

// One trained deployment shared by all server tests (teacher pretraining is
// the expensive step; do it once per process). `snap_` is the baseline
// published snapshot (version 1) most server tests serve from; tests that
// need a later snapshot publish their own.
class RuntimeServing : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fw_ = new Framework(fast_options());
    fw_->pretrain_teacher();
    task_ = new TaskHandle(fw_->define_task(data::task_by_id(1)));
    fw_->prepare_task_specific(*task_);
    fw_->prepare_quantized();
    snap_ = new std::shared_ptr<const core::DeploymentSnapshot>(
        fw_->publish());
    Rng rng(123);
    data::SceneGenerator gen(fw_->options().generator);
    eval_ = new data::Dataset(data::Dataset::generate(gen, 24, rng));
  }
  static void TearDownTestSuite() {
    delete eval_;
    delete snap_;
    delete task_;
    delete fw_;
  }

  static void expect_same_detections(
      const std::vector<detect::Detection>& got,
      const std::vector<detect::Detection>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].cell, want[i].cell);
      EXPECT_EQ(got[i].predicted_class, want[i].predicted_class);
      // Element-wise identity, not tolerance: the runtime's determinism
      // contract says batching/scheduling never changes a result bit.
      EXPECT_EQ(got[i].objectness, want[i].objectness);
      EXPECT_EQ(got[i].task_score, want[i].task_score);
      EXPECT_EQ(got[i].confidence, want[i].confidence);
      EXPECT_EQ(got[i].box.cx, want[i].box.cx);
      EXPECT_EQ(got[i].box.cy, want[i].box.cy);
      EXPECT_EQ(got[i].box.w, want[i].box.w);
      EXPECT_EQ(got[i].box.h, want[i].box.h);
    }
  }

  // A worker warmed only at batch 1 serves its first full batch without a
  // heap allocation: plan_workspace() sized its arena for max_batch at
  // install, and all of the hot path's scratch lives there — the FP32 GEMM
  // pack panels and the INT8 activation panels included.
  static void expect_no_alloc_when_batch_grows(ConfigKind config) {
    RuntimeOptions opts;
    opts.workers = 1;
    opts.max_batch = 8;
    opts.max_wait_us = 50000;  // a max_batch burst closes as ONE batch
    opts.queue_capacity = 64;
    InferenceServer server(*snap_, opts);
    const auto serve = [&](int64_t n) {
      std::vector<std::future<InferenceResult>> futures;
      for (int64_t i = 0; i < n; ++i) {
        auto f = server.try_submit(eval_->scene(i).image, task_->id, config);
        ASSERT_TRUE(f.admitted());
        futures.push_back(std::move(*f.future));
      }
      for (auto& f : futures) EXPECT_EQ(f.get().batch_size, n);
    };
    for (int round = 0; round < 2; ++round) serve(1);  // warmup at batch 1
    const int64_t warm = server.metrics().counter("hot_path_allocs").value();
    serve(opts.max_batch);
    EXPECT_EQ(server.metrics().counter("hot_path_allocs").value(), warm)
        << "the hot path heap-allocated when the batch grew";
    EXPECT_EQ(server.metrics().counter("arena_overflow_allocs").value(), 0);
  }

  static Framework* fw_;
  static TaskHandle* task_;
  static std::shared_ptr<const core::DeploymentSnapshot>* snap_;
  static data::Dataset* eval_;
};

Framework* RuntimeServing::fw_ = nullptr;
TaskHandle* RuntimeServing::task_ = nullptr;
std::shared_ptr<const core::DeploymentSnapshot>* RuntimeServing::snap_ =
    nullptr;
data::Dataset* RuntimeServing::eval_ = nullptr;

TEST_F(RuntimeServing, PublishStampsMonotonicVersionsAndSharesModels) {
  const auto a = fw_->publish();
  const auto b = fw_->publish();
  EXPECT_EQ(b->version(), a->version() + 1);
  EXPECT_GE(a->version(), 1);
  EXPECT_EQ((*snap_)->version(), 1);
  EXPECT_TRUE(a->has_task(task_->id));
  EXPECT_TRUE(a->servable(task_->id, ConfigKind::kTaskSpecific));
  EXPECT_TRUE(a->servable(task_->id, ConfigKind::kQuantizedMultiTask));
  EXPECT_FALSE(a->servable(kg::TaskId{9999}, ConfigKind::kQuantizedMultiTask));
  EXPECT_EQ(a->expected_input_shape(), fw_->expected_input_shape());
  EXPECT_EQ(fw_->published_snapshots(), b->version());
}

TEST_F(RuntimeServing, SnapshotInferBatchMatchesDetectBatchExactly) {
  // The published serving path must agree with the Framework's mutable
  // serial path element-wise, for both deployable configurations — the
  // identity that makes snapshot swaps invisible to results.
  Tensor images({eval_->size(), 3, 24, 24});
  for (int64_t i = 0; i < eval_->size(); ++i) {
    images.set_index(i, eval_->scene(i).image);
  }
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    const auto serial = fw_->detect_batch(images, *task_, config);
    const auto snapshot = (*snap_)->infer_batch(images, task_->id, config);
    ASSERT_EQ(serial.size(), snapshot.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      expect_same_detections(snapshot[i], serial[i]);
    }
  }
}

TEST_F(RuntimeServing, PublishPrepacksServingKernelsWithoutChangingResults) {
  // publish() pre-packed every FP32 student snap_ captured, so the snapshot
  // path must actually hit the prepacked kernels (the profile counters
  // tick) — while SnapshotInferBatchMatchesDetectBatchExactly above pins
  // the other half of the contract: results stay element-wise identical to
  // the serial path. (The quantized model is packed when it is built, so
  // there is no unpacked INT8 path to tell apart.)
  Tensor images({eval_->size(), 3, 24, 24});
  for (int64_t i = 0; i < eval_->size(); ++i) {
    images.set_index(i, eval_->scene(i).image);
  }
  profile::reset();
  profile::set_enabled(true);
  const auto fp32 =
      (*snap_)->infer_batch(images, task_->id, ConfigKind::kTaskSpecific);
  profile::set_enabled(false);
  int64_t fp32_calls = 0, fp32_bytes = 0;
  for (const auto& c : profile::counter_snapshot()) {
    switch (c.counter) {
      case profile::Counter::kGemmPrepackedCalls: fp32_calls = c.value; break;
      case profile::Counter::kGemmPackBytesAvoided: fp32_bytes = c.value; break;
      default: break;
    }
  }
  profile::reset();
#ifdef ITASK_NO_PROFILING
  // Compiled out: the counters never tick, so the prepack shows on the
  // published student's layers themselves.
  EXPECT_EQ(fp32_calls, 0);
  EXPECT_EQ(fp32_bytes, 0);
  const nn::TransformerEncoder& encoder =
      fw_->student_for(*task_).encoder();
  for (int64_t i = 0; i < encoder.depth(); ++i) {
    const nn::TransformerBlock& block = encoder.block(i);
    EXPECT_TRUE(block.attention().qkv().prepacked()) << "block " << i;
    EXPECT_TRUE(block.attention().proj().prepacked()) << "block " << i;
    EXPECT_TRUE(block.fc1().prepacked()) << "block " << i;
    EXPECT_TRUE(block.fc2().prepacked()) << "block " << i;
  }
#else
  EXPECT_GT(fp32_calls, 0) << "fp32 student served without prepacked weights";
  EXPECT_GT(fp32_bytes, 0);
#endif
  // And the equality half once more, on the counters' own run.
  const auto serial_fp32 =
      fw_->detect_batch(images, *task_, ConfigKind::kTaskSpecific);
  ASSERT_EQ(fp32.size(), serial_fp32.size());
  for (size_t i = 0; i < fp32.size(); ++i) {
    expect_same_detections(fp32[i], serial_fp32[i]);
  }
}

TEST_F(RuntimeServing, LargeMicroBatchServingBitExactVsSerial) {
  // Micro-batches of up to 32 images: 32·(T+1) GEMM rows span several MC
  // slabs of the blocked kernels, and every request must still be
  // element-wise identical to the serial single-image path. This test is
  // part of the TSan suite.
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    std::vector<std::future<InferenceResult>> futures;
    {
      RuntimeOptions opts;
      opts.workers = 2;
      opts.max_batch = 32;
      opts.max_wait_us = 2000;
      opts.queue_capacity = 128;
      InferenceServer server(*snap_, opts);
      for (int64_t i = 0; i < 2 * eval_->size(); ++i) {
        auto f = server.try_submit(eval_->scene(i % eval_->size()).image,
                                   task_->id, config);
        ASSERT_TRUE(f.admitted());
        futures.push_back(std::move(*f.future));
      }
    }
    for (int64_t i = 0; i < 2 * eval_->size(); ++i) {
      InferenceResult r = futures[static_cast<size_t>(i)].get();
      const auto serial = fw_->detect(
          eval_->scene(i % eval_->size()).image, *task_, config);
      expect_same_detections(r.detections, serial);
    }
  }
}

TEST_F(RuntimeServing, SnapshotValidatesConstructionAndUnservableRequests) {
  EXPECT_THROW(core::DeploymentSnapshot(0, Shape{3, 24, 24}, kg::TaskTable{},
                                        {}, nullptr, core::DetectionPipeline{}),
               std::invalid_argument);
  EXPECT_THROW(core::DeploymentSnapshot(1, Shape{24, 24}, kg::TaskTable{}, {},
                                        nullptr, core::DetectionPipeline{}),
               std::invalid_argument);
  Tensor images({1, 3, 24, 24});
  images.set_index(0, eval_->scene(0).image);
  // Unknown task and absent student both throw with the snapshot version in
  // the message.
  EXPECT_THROW((*snap_)->infer_batch(images, kg::TaskId{9999},
                                     ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
}

TEST_F(RuntimeServing, ResultsDeterministicVsSerialPath) {
  // Whatever micro-batches the workers form, every request's detections
  // must be element-wise identical to serial single-image detection.
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    std::vector<std::future<InferenceResult>> futures;
    {
      RuntimeOptions opts;
      opts.workers = 3;
      opts.max_batch = 4;
      opts.max_wait_us = 500;
      opts.queue_capacity = 64;
      InferenceServer server(*snap_, opts);
      for (int64_t i = 0; i < eval_->size(); ++i) {
        auto f = server.try_submit(eval_->scene(i).image, task_->id, config);
        ASSERT_TRUE(f.admitted());
        futures.push_back(std::move(*f.future));
      }
    }  // destructor = graceful shutdown; all futures must be fulfilled
    for (int64_t i = 0; i < eval_->size(); ++i) {
      InferenceResult r = futures[static_cast<size_t>(i)].get();
      EXPECT_EQ(r.request_id, i);
      EXPECT_EQ(r.snapshot_version, (*snap_)->version());
      const auto serial = fw_->detect(eval_->scene(i).image, *task_, config);
      expect_same_detections(r.detections, serial);
    }
  }
}

TEST_F(RuntimeServing, ShutdownDrainsEveryAdmittedRequest) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 200;
  opts.queue_capacity = 128;
  InferenceServer server(*snap_, opts);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 24; ++i) {
    auto f = server.try_submit(eval_->scene(i % eval_->size()).image, task_->id,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  server.shutdown();  // must fulfil all 24, not drop queued ones
  std::set<int64_t> ids;
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    EXPECT_TRUE(ids.insert(r.request_id).second) << "duplicated request";
    EXPECT_GE(r.total_us, r.infer_us);
    EXPECT_GE(r.batch_size, 1);
  }
  EXPECT_EQ(ids.size(), 24u);  // nothing lost
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), 24);
  EXPECT_EQ(server.metrics().counter("requests_submitted").value(), 24);
  server.shutdown();  // idempotent
}

TEST_F(RuntimeServing, BackpressureRejectsWhenQueueFull) {
  // No workers can make progress while we hold the only worker hostage with
  // a tiny queue: use a capacity-2 queue and a single slow worker, then
  // submit faster than it can drain.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 2;
  InferenceServer server(*snap_, opts);
  int64_t accepted = 0;
  int64_t rejected = 0;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 64; ++i) {
    auto f = server.try_submit(eval_->scene(i % eval_->size()).image, task_->id,
                               ConfigKind::kQuantizedMultiTask);
    if (f.admitted()) {
      EXPECT_EQ(f.reject, RejectReason::kNone);
      ++accepted;
      futures.push_back(std::move(*f.future));
    } else {
      // The typed result names the cause — backpressure, not shutdown.
      EXPECT_EQ(f.reject, RejectReason::kQueueFull);
      EXPECT_FALSE(f);  // operator bool mirrors admitted()
      ++rejected;
    }
  }
  server.shutdown();
  EXPECT_GT(rejected, 0) << "queue of 2 should shed load at this rate";
  // Backpressure rejections are specifically queue-full, not shutdown: the
  // two causes are split so this test measures what it claims.
  EXPECT_EQ(server.metrics().counter("rejected_queue_full").value(), rejected);
  EXPECT_EQ(server.metrics().counter("rejected_shutdown").value(), 0);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), accepted);
  for (auto& f : futures) f.get();  // every accepted request completed
}

TEST_F(RuntimeServing, SubmitAfterShutdownIsRejected) {
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  server.shutdown();
  const auto f = server.try_submit(eval_->scene(0).image, task_->id,
                                   ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(f.admitted());
  EXPECT_EQ(f.reject, RejectReason::kShuttingDown);
  EXPECT_STREQ(reject_reason_name(f.reject), "shutting_down");
  EXPECT_STREQ(reject_reason_name(RejectReason::kQueueFull), "queue_full");
  EXPECT_STREQ(reject_reason_name(RejectReason::kNone), "none");
  // Counted as a shutdown rejection, not backpressure.
  EXPECT_EQ(server.metrics().counter("rejected_shutdown").value(), 1);
  EXPECT_EQ(server.metrics().counter("rejected_queue_full").value(), 0);
}

TEST_F(RuntimeServing, AdmissionRejectsMisshapedImage) {
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  // Wrong spatial dims: must throw at admission with a clear message, not
  // reach a worker (where stacking it with a well-shaped request would have
  // crashed the process pre-fix).
  try {
    server.try_submit(Tensor({3, 12, 24}), task_->id,
                      ConfigKind::kQuantizedMultiTask);
    FAIL() << "mis-shaped image must be rejected at admission";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shape"), std::string::npos) << what;
    EXPECT_NE(what.find("[3, 12, 24]"), std::string::npos) << what;
  }
  // Wrong rank is also an admission failure.
  EXPECT_THROW(server.try_submit(Tensor({24, 24}), task_->id,
                                 ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 2);
  // A negative deadline, an empty group and a group too large for the queue
  // are malformed requests too, counted the same way.
  const Tensor& good = eval_->scene(0).image;
  EXPECT_THROW(server.try_submit(good, task_->id,
                                 ConfigKind::kQuantizedMultiTask, -1),
               std::invalid_argument);
  EXPECT_THROW(server.try_submit_group({}, task_->id,
                                       ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  EXPECT_THROW(
      server.try_submit_group(
          std::vector<Tensor>(static_cast<size_t>(opts.queue_capacity + 1),
                              good),
          task_->id, ConfigKind::kQuantizedMultiTask),
      std::invalid_argument);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 5);
  // The server keeps serving valid traffic afterwards.
  auto f = server.try_submit(eval_->scene(0).image, task_->id,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f.admitted());
  f.future->get();  // completes
}

// A copy of `image` with its middle pixel replaced by `bad`.
Tensor with_bad_pixel(const Tensor& image, float bad) {
  Tensor out = image;
  out.data()[out.numel() / 2] = bad;
  return out;
}

TEST_F(RuntimeServing, AdmissionRejectsNonFinitePixels) {
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  const Tensor& good = eval_->scene(0).image;
  int64_t invalid = 0;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    try {
      server.try_submit(with_bad_pixel(good, bad), task_->id,
                        ConfigKind::kQuantizedMultiTask);
      FAIL() << "a non-finite pixel must be rejected at admission";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
          << e.what();
    }
    // One bad view rejects its whole group; no view is queued.
    std::vector<Tensor> views = {good, with_bad_pixel(good, bad), good};
    EXPECT_THROW(server.try_submit_group(std::move(views), task_->id,
                                         ConfigKind::kTaskSpecific),
                 std::invalid_argument);
    invalid += 2;
    EXPECT_EQ(server.metrics().counter("requests_invalid").value(), invalid);
  }
  EXPECT_EQ(server.metrics().counter("requests_submitted").value(), 0);
  // The server keeps serving valid traffic afterwards.
  auto f = server.try_submit(good, task_->id, ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f.admitted());
  f.future->get();
}

TEST_F(RuntimeServing, AdmissionGatesOnCurrentSnapshotUntilInstall) {
  // A task defined *after* the server's snapshot was published is not
  // servable — under either configuration — until a snapshot containing it
  // is installed. Admission says so instead of a worker throwing mid-batch.
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(fw_->publish(), opts);
  const TaskHandle undistilled = fw_->define_task(data::task_by_id(2));
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, undistilled.id,
                                 ConfigKind::kTaskSpecific),
               std::invalid_argument);
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, undistilled.id,
                                 ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 2);

  // Publishing and installing a snapshot containing the task makes its
  // quantized path servable instantly (KG matching needs no per-task
  // student); the task-specific path still needs a distilled student.
  server.install_snapshot(fw_->publish());
  EXPECT_TRUE(server.current_snapshot()->has_task(undistilled.id));
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, undistilled.id,
                                 ConfigKind::kTaskSpecific),
               std::invalid_argument);
  auto f = server.try_submit(eval_->scene(0).image, undistilled.id,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f.admitted());
  f.future->get();
  EXPECT_EQ(server.metrics().counter("snapshots_published").value(), 2);
  EXPECT_EQ(server.metrics().counter("tasks_onboarded").value(), 1);
}

TEST_F(RuntimeServing, InstallSnapshotValidatesVersionAndShape) {
  RuntimeOptions opts;
  opts.workers = 1;
  const auto current = fw_->publish();
  InferenceServer server(current, opts);
  EXPECT_THROW(server.install_snapshot(nullptr), std::invalid_argument);
  // Same (or older) version must be refused — installs only move forward.
  EXPECT_THROW(server.install_snapshot(current), std::invalid_argument);
  EXPECT_THROW(server.install_snapshot(*snap_), std::invalid_argument);
  // A newer version with a different input shape breaks the admission
  // contract already handed to clients: refused.
  const auto misshaped = std::make_shared<const core::DeploymentSnapshot>(
      current->version() + 100, Shape{3, 12, 12}, current->tasks(),
      std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>>{}, nullptr,
      core::DetectionPipeline{});
  EXPECT_THROW(server.install_snapshot(misshaped), std::invalid_argument);
  EXPECT_EQ(server.current_snapshot()->version(), current->version());
  // Failed installs never count as publishes.
  EXPECT_EQ(server.metrics().counter("snapshots_published").value(), 1);
}

TEST_F(RuntimeServing, InjectedFaultFailsOnlyItsGroupAndServingContinues) {
  // max_batch 1 → one request per group, so the injector can target request
  // id 3 exactly. The faulted future must carry the exception; every other
  // request — including ones submitted *after* the fault — must complete
  // with results identical to the serial path, and the process must live.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  std::atomic<int64_t> injections{0};
  opts.fault_injector = [&injections](const FaultSite& site) {
    if (site.first_request_id == 3) {
      injections.fetch_add(1);
      throw std::runtime_error("injected inference fault");
    }
  };
  InferenceServer server(*snap_, opts);

  constexpr int kFirstWave = 8;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kFirstWave; ++i) {
    auto f = server.try_submit(eval_->scene(i % eval_->size()).image, task_->id,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  for (int i = 0; i < kFirstWave; ++i) {
    if (i == 3) {
      EXPECT_THROW(futures[static_cast<size_t>(i)].get(), std::runtime_error);
    } else {
      InferenceResult r = futures[static_cast<size_t>(i)].get();
      const auto serial = fw_->detect(eval_->scene(i % eval_->size()).image,
                                      *task_, ConfigKind::kQuantizedMultiTask);
      expect_same_detections(r.detections, serial);
    }
  }

  // Later requests on the same (still running) server complete normally.
  for (int i = 0; i < 4; ++i) {
    auto f = server.try_submit(eval_->scene(i).image, task_->id,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    InferenceResult r = f.future->get();
    const auto serial = fw_->detect(eval_->scene(i).image, *task_,
                                    ConfigKind::kQuantizedMultiTask);
    expect_same_detections(r.detections, serial);
  }
  server.shutdown();

  EXPECT_EQ(injections.load(), 1);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 1);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(),
            kFirstWave - 1 + 4);
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 0);
}

TEST_F(RuntimeServing, FaultInGroupedBatchFailsWholeGroupOnly) {
  // One micro-batch mixing both configurations: the injector fails the
  // quantized group; the task-specific group in the same batch succeeds.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 100000;  // keep the batch open until all 4 arrive
  opts.queue_capacity = 64;
  opts.fault_injector = [](const FaultSite& site) {
    if (site.config == ConfigKind::kQuantizedMultiTask) {
      throw std::runtime_error("injected quantized-path fault");
    }
  };
  InferenceServer server(*snap_, opts);
  std::vector<std::future<InferenceResult>> futures;
  const std::vector<ConfigKind> configs{
      ConfigKind::kQuantizedMultiTask, ConfigKind::kTaskSpecific,
      ConfigKind::kQuantizedMultiTask, ConfigKind::kTaskSpecific};
  for (size_t i = 0; i < configs.size(); ++i) {
    auto f = server.try_submit(eval_->scene(static_cast<int64_t>(i)).image,
                               task_->id, configs[i]);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  server.shutdown();
  for (size_t i = 0; i < configs.size(); ++i) {
    if (configs[i] == ConfigKind::kQuantizedMultiTask) {
      EXPECT_THROW(futures[i].get(), std::runtime_error);
    } else {
      InferenceResult r = futures[i].get();
      const auto serial =
          fw_->detect(eval_->scene(static_cast<int64_t>(i)).image, *task_,
                      configs[i]);
      expect_same_detections(r.detections, serial);
    }
  }
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 2);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), 2);
}

namespace {

// Serves `images[i]` for `tasks[i]` through one micro-batch (one worker,
// max_batch = the request count, a window long enough for all to arrive)
// and returns the results plus every (config, model) group the worker
// formed, as its fault injector saw them.
struct MixedBatch {
  std::vector<InferenceResult> results;
  std::vector<FaultSite> sites;
};

MixedBatch serve_one_micro_batch(
    std::shared_ptr<const core::DeploymentSnapshot> snapshot,
    const std::vector<Tensor>& images, const std::vector<kg::TaskId>& tasks,
    ConfigKind config) {
  MixedBatch out;
  std::mutex sites_mu;
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = static_cast<int64_t>(images.size());
  opts.max_wait_us = 100000;  // keep the batch open until all arrive
  opts.fault_injector = [&](const FaultSite& site) {
    std::lock_guard<std::mutex> lock(sites_mu);
    out.sites.push_back(site);
  };
  InferenceServer server(std::move(snapshot), opts);
  std::vector<std::future<InferenceResult>> futures;
  for (size_t i = 0; i < images.size(); ++i) {
    auto f = server.try_submit(images[i], tasks[i], config);
    EXPECT_TRUE(f.admitted());
    if (f.admitted()) futures.push_back(std::move(*f.future));
  }
  server.shutdown();
  for (auto& f : futures) out.results.push_back(f.get());
  return out;
}

}  // namespace

TEST_F(RuntimeServing, MixedTaskInt8MicroBatchRunsOneForward) {
  // The INT8 multi-task model is the same for every task, so one forward
  // serves requests of several tasks; decode then matches each image
  // against its own task.
  const TaskHandle second = fw_->define_task(data::task_by_id(2));
  const std::vector<const TaskHandle*> handles{task_, &second, task_,
                                               &second};
  std::vector<Tensor> images;
  std::vector<kg::TaskId> tasks;
  for (size_t i = 0; i < handles.size(); ++i) {
    images.push_back(eval_->scene(static_cast<int64_t>(i)).image);
    tasks.push_back(handles[i]->id);
  }
  const MixedBatch served = serve_one_micro_batch(
      fw_->publish(), images, tasks, ConfigKind::kQuantizedMultiTask);
  ASSERT_EQ(served.sites.size(), 1u);
  EXPECT_EQ(served.sites[0].group_size, 4);
  EXPECT_EQ(served.sites[0].config, ConfigKind::kQuantizedMultiTask);
  ASSERT_EQ(served.results.size(), handles.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(served.results[i].batch_size, 4);
    const auto serial =
        fw_->detect(images[i], *handles[i], ConfigKind::kQuantizedMultiTask);
    expect_same_detections(served.results[i].detections, serial);
  }
}

TEST_F(RuntimeServing, MixedTaskFp32MicroBatchRunsOneForwardPerTask) {
  // The FP32 configuration has one student per task: the same mix splits
  // into one group per task, each in submission order.
  TaskHandle second = fw_->define_task(data::task_by_id(3));
  fw_->prepare_task_specific(second);
  const std::vector<const TaskHandle*> handles{task_, &second, task_,
                                               &second};
  std::vector<Tensor> images;
  std::vector<kg::TaskId> tasks;
  for (size_t i = 0; i < handles.size(); ++i) {
    images.push_back(eval_->scene(static_cast<int64_t>(i)).image);
    tasks.push_back(handles[i]->id);
  }
  const MixedBatch served = serve_one_micro_batch(
      fw_->publish(), images, tasks, ConfigKind::kTaskSpecific);
  ASSERT_EQ(served.sites.size(), 2u);
  EXPECT_EQ(served.sites[0].group_size, 2);
  EXPECT_EQ(served.sites[1].group_size, 2);
  EXPECT_EQ(served.sites[0].first_request_id, 0);  // requests 0 and 2
  EXPECT_EQ(served.sites[1].first_request_id, 1);  // requests 1 and 3
  ASSERT_EQ(served.results.size(), handles.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(served.results[i].batch_size, 4);
    const auto serial =
        fw_->detect(images[i], *handles[i], ConfigKind::kTaskSpecific);
    expect_same_detections(served.results[i].detections, serial);
  }
}

TEST_F(RuntimeServing, ExpiredDeadlinesShedAtBatchFormation) {
  // Stall the only worker on request 0 (which carries no deadline), queue
  // two requests with a 2 ms deadline plus one with a generous per-request
  // override, then release the worker well after the short deadlines passed:
  // the two stale requests are shed with DeadlineExceeded, the others serve.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  opts.deadline_us = 2000;  // default deadline for submissions below
  std::atomic<bool> release{false};
  opts.fault_injector = [&release](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  InferenceServer server(*snap_, opts);

  // Request 0: per-request override 0 = no deadline (stalls the worker).
  auto f0 = server.try_submit(eval_->scene(0).image, task_->id,
                              ConfigKind::kQuantizedMultiTask,
                              /*deadline_us=*/0);
  ASSERT_TRUE(f0.admitted());
  // Requests 1 and 2: default 2 ms deadline; expire while the worker stalls.
  auto f1 = server.try_submit(eval_->scene(1).image, task_->id,
                              ConfigKind::kQuantizedMultiTask);
  auto f2 = server.try_submit(eval_->scene(2).image, task_->id,
                              ConfigKind::kQuantizedMultiTask);
  // Request 3: generous per-request override outlives the stall.
  auto f3 = server.try_submit(eval_->scene(3).image, task_->id,
                              ConfigKind::kQuantizedMultiTask,
                              /*deadline_us=*/60'000'000);
  ASSERT_TRUE(f1.admitted() && f2.admitted() && f3.admitted());

  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // > 2 ms
  release.store(true);
  server.shutdown();

  expect_same_detections(f0.future->get().detections,
                         fw_->detect(eval_->scene(0).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  EXPECT_THROW(f1.future->get(), DeadlineExceeded);
  EXPECT_THROW(f2.future->get(), DeadlineExceeded);
  expect_same_detections(f3.future->get().detections,
                         fw_->detect(eval_->scene(3).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 2);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), 2);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 0);
  // Expired requests record their (real) queue-wait stage and nothing else:
  // 4 queue-wait samples (2 completed + 2 expired), but only the 2 completed
  // requests reach the infer/total stage histograms.
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kQueueWait))
                .snapshot()
                .count,
            4);
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kInfer))
                .snapshot()
                .count,
            2);
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kTotal))
                .snapshot()
                .count,
            2);
}

TEST_F(RuntimeServing, DeadlineNearInt64MaxSaturatesInsteadOfShedding) {
  // A relative deadline near INT64_MAX means "effectively never", for a
  // single request and for every view of a group: the absolute deadline
  // saturates instead of wrapping negative, which would shed the request as
  // DeadlineExceeded the moment a worker picked it up.
  FakeClock clock(1'000'000);
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 0;
  opts.queue_capacity = 16;
  opts.clock_us = clock.fn();
  InferenceServer server(*snap_, opts);
  constexpr int64_t kFar = std::numeric_limits<int64_t>::max();

  auto single = server.try_submit(eval_->scene(0).image, task_->id,
                                  ConfigKind::kQuantizedMultiTask, kFar);
  ASSERT_TRUE(single.admitted());
  auto group = server.try_submit_group(
      detect::jittered_views(eval_->scene(1).image, 3, 0.05f, 71), task_->id,
      ConfigKind::kQuantizedMultiTask, kFar - 1);
  ASSERT_TRUE(group.admitted());
  server.shutdown();

  try {
    expect_same_detections(single.future->get().detections,
                           fw_->detect(eval_->scene(0).image, *task_,
                                       ConfigKind::kQuantizedMultiTask));
  } catch (const std::exception& e) {
    ADD_FAILURE() << "single request failed: " << e.what();
  }
  try {
    EXPECT_EQ(group.future->get().view_count, 3);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "group request failed: " << e.what();
  }
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 0);
  EXPECT_EQ(server.metrics().counter("requests_completed").value(), 4);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 1);
}

TEST_F(RuntimeServing, FakeClockMakesStageTimelineExact) {
  // With an injected FakeClock every stage duration is an exact number, not
  // a sleep plus tolerance. One worker, batch size 1: request 0 stalls the
  // worker (gated injector) while we advance the clock around request 1's
  // admission, then request 1's own injector advances the clock between
  // batch formation and inference start.
  FakeClock clock(1000);
  std::atomic<bool> release{false};
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 8;
  opts.clock_us = clock.fn();
  opts.fault_injector = [&release, &clock](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else if (site.first_request_id == 1) {
      clock.advance_us(40);  // "batch formation took 40 us"
    }
  };
  InferenceServer server(*snap_, opts);

  auto f0 = server.try_submit(eval_->scene(0).image, task_->id,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f0.admitted());
  clock.advance_us(100);  // request 1 admitted at t=1100
  auto f1 = server.try_submit(eval_->scene(1).image, task_->id,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f1.admitted());
  clock.advance_us(250);  // t=1350 when the stalled worker resumes
  release.store(true);
  server.shutdown();

  // Request 1 was picked at exactly t=1350 (the worker was blocked in
  // request 0's injector until after the last main-thread advance), its
  // injector advanced the clock 40 us, and inference itself advanced it 0.
  const InferenceResult r1 = f1.future->get();
  EXPECT_EQ(r1.timeline.admitted_us, 1100);
  EXPECT_EQ(r1.timeline.picked_us, 1350);
  EXPECT_EQ(r1.timeline.infer_start_us, 1390);
  EXPECT_EQ(r1.timeline.infer_end_us, 1390);
  EXPECT_EQ(r1.timeline.snapshot_version, (*snap_)->version());
  EXPECT_EQ(r1.snapshot_version, (*snap_)->version());
  EXPECT_EQ(r1.queue_us, 250.0);
  EXPECT_EQ(r1.batch_formation_us, 40.0);
  EXPECT_EQ(r1.infer_us, 0.0);
  EXPECT_EQ(r1.total_us, 290.0);
  EXPECT_EQ(f0.future->get().request_id, 0);  // request 0 completed too

  // Both requests fed the stage histograms; no clock advance happened
  // during either inference, so the infer stage saw exactly {0, 0}.
  const auto infer_snap = server.metrics()
                              .histogram(stage_histogram_name(Stage::kInfer))
                              .snapshot();
  EXPECT_EQ(infer_snap.count, 2);
  EXPECT_EQ(infer_snap.max, 0.0);
  EXPECT_EQ(server.metrics()
                .histogram(stage_histogram_name(Stage::kTotal))
                .snapshot()
                .count,
            2);
}

TEST_F(RuntimeServing, ProfilingHooksAreTransparent) {
  // The kernel profiling hooks must be invisible when disabled (no section
  // recorded anywhere) and must not perturb results when enabled: the same
  // inputs produce element-wise identical detections hooks-off and hooks-on.
  Tensor images({4, 3, 24, 24});
  for (int64_t i = 0; i < 4; ++i) {
    images.set_index(i, eval_->scene(i).image);
  }
  profile::reset();
  ASSERT_FALSE(profile::enabled());
  const auto off = (*snap_)->infer_batch(images, task_->id,
                                         ConfigKind::kQuantizedMultiTask);
  EXPECT_TRUE(profile::snapshot().empty());

  profile::set_enabled(true);
  const auto on = (*snap_)->infer_batch(images, task_->id,
                                        ConfigKind::kQuantizedMultiTask);
  profile::set_enabled(false);
  const auto sections = profile::snapshot();
#ifdef ITASK_NO_PROFILING
  // Compiled out: enabled hooks still record no section and no counter.
  EXPECT_TRUE(sections.empty());
  EXPECT_TRUE(profile::counter_snapshot().empty());
#else
  ASSERT_FALSE(sections.empty());
  bool saw_int8_kernel = false;
  for (const auto& s : sections) {
    EXPECT_GT(s.calls, 0);
    EXPECT_GE(s.total_ns, 0);
    if (std::string(s.name) == "int8_kernel") saw_int8_kernel = true;
  }
  EXPECT_TRUE(saw_int8_kernel);  // the quantized config runs the int8 path
#endif

  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    expect_same_detections(on[i], off[i]);
  }
  profile::reset();
  EXPECT_TRUE(profile::snapshot().empty());
}

TEST_F(RuntimeServing, MultiProducerStressMixedConfigs) {
  // 4 producer threads × both configurations, explicit per-producer seeds
  // choosing scene and configuration. Checks: no lost/duplicate ids, every
  // result element-wise equal to the serial path, metrics consistent.
  RuntimeOptions opts;
  opts.workers = 4;
  opts.max_batch = 6;
  opts.max_wait_us = 300;
  opts.queue_capacity = 256;
  InferenceServer server(*snap_, opts);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  struct Submitted {
    std::future<InferenceResult> future;
    int64_t scene = 0;
    ConfigKind config = ConfigKind::kQuantizedMultiTask;
  };
  std::vector<std::vector<Submitted>> per_producer(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + static_cast<uint64_t>(p));  // explicit seed per producer
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t scene = rng.randint(0, eval_->size() - 1);
        const ConfigKind config = rng.bernoulli(0.5)
                                      ? ConfigKind::kTaskSpecific
                                      : ConfigKind::kQuantizedMultiTask;
        while (true) {  // retry on backpressure so all submissions land
          auto f = server.try_submit(eval_->scene(scene).image, task_->id,
                                     config);
          if (f.admitted()) {
            per_producer[static_cast<size_t>(p)].push_back(
                Submitted{std::move(*f.future), scene, config});
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown();

  std::set<int64_t> ids;
  for (auto& submissions : per_producer) {
    ASSERT_EQ(submissions.size(), static_cast<size_t>(kPerProducer));
    for (auto& s : submissions) {
      InferenceResult r = s.future.get();
      EXPECT_TRUE(ids.insert(r.request_id).second);
      const auto serial =
          fw_->detect(eval_->scene(s.scene).image, *task_, s.config);
      expect_same_detections(r.detections, serial);
    }
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kProducers * kPerProducer));
  EXPECT_EQ(server.metrics().counter("requests_completed").value(),
            kProducers * kPerProducer);
  const auto batch_sizes = server.metrics().histogram("batch_size").snapshot();
  EXPECT_GE(batch_sizes.max, 1.0);
  EXPECT_LE(batch_sizes.max, static_cast<double>(opts.max_batch));
}

TEST_F(RuntimeServing, ConstMetricsAccessorServesScrapes) {
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(*snap_, opts);
  auto f = server.try_submit(eval_->scene(0).image, task_->id,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f.admitted());
  f.future->get();
  // The const overload views the same registry the server writes to…
  const InferenceServer& viewer = server;
  EXPECT_EQ(&viewer.metrics(), &server.metrics());
  // …and feeds the exposition/scrape path without mutable access.
  const std::string text = to_prometheus(collect(viewer.metrics()));
  EXPECT_NE(text.find("itask_requests_completed 1"), std::string::npos);
  EXPECT_NE(text.find("itask_snapshots_published 1"), std::string::npos);
  EXPECT_NE(text.find("itask_tasks_onboarded 0"), std::string::npos);
  // A PeriodicReporter runs off the same const reference.
  std::mutex mu;
  std::vector<std::string> renders;
  {
    PeriodicReporter reporter(viewer.metrics(), std::chrono::milliseconds(5),
                              [&](const std::string& s) {
                                std::lock_guard<std::mutex> lock(mu);
                                renders.push_back(s);
                              });
  }
  ASSERT_FALSE(renders.empty());
  EXPECT_NE(renders.back().find("itask_requests_completed 1"),
            std::string::npos);
}

TEST_F(RuntimeServing, ServesTextDefinedTaskOnQuantizedPath) {
  // A task defined from free-form text only (no ground-truth spec) is a
  // first-class serving citizen on the quantized path: its KG compiles to
  // matcher vectors, a snapshot carries them, and the server admits and
  // serves requests whose relevance comes from KG matching.
  const TaskHandle adhoc =
      fw_->define_task_from_text("find fragile items to pack");
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 300;
  InferenceServer server(fw_->publish(), opts);
  // No student was distilled for it: task-specific admission refuses.
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, adhoc.id,
                                 ConfigKind::kTaskSpecific),
               std::invalid_argument);

  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < eval_->size(); ++i) {
    auto f = server.try_submit(eval_->scene(i).image, adhoc.id,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  server.shutdown();

  int64_t total_detections = 0;
  for (int64_t i = 0; i < eval_->size(); ++i) {
    InferenceResult r = futures[static_cast<size_t>(i)].get();
    const auto serial = fw_->detect(eval_->scene(i).image, adhoc,
                                    ConfigKind::kQuantizedMultiTask);
    expect_same_detections(r.detections, serial);
    for (const auto& d : r.detections) {
      // KG-matched relevance: the task score is the matcher's, not a
      // relevance head's, and every kept detection passed its threshold.
      EXPECT_GT(d.task_score, 0.0f);
      EXPECT_LE(d.task_score, 1.0f);
      ++total_detections;
    }
  }
  EXPECT_GT(total_detections, 0) << "24 scenes should contain fragile items";
}

TEST_F(RuntimeServing, LiveOnboardingServesThroughPublishes) {
  // The zero-downtime acceptance property: one thread streams requests for
  // an existing task while this thread onboards two new tasks end to end
  // (define → prepare → publish → install). Admission never fails for the
  // streaming task, nothing is shed or failed, every result is element-wise
  // identical to the serial path, and each new task serves correctly the
  // moment its snapshot is installed. Run under -DITASK_SANITIZE=thread.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 300;
  opts.queue_capacity = 128;
  InferenceServer server(fw_->publish(), opts);
  const int64_t base_version = server.current_snapshot()->version();

  struct Streamed {
    std::future<InferenceResult> future;
    int64_t scene = 0;
    ConfigKind config = ConfigKind::kQuantizedMultiTask;
  };
  std::vector<Streamed> streamed;
  std::atomic<bool> stop{false};
  // The streaming thread touches ONLY the server (never the Framework —
  // define/prepare are not thread-safe against detect/evaluate); serial
  // comparisons happen after it joins.
  std::thread streamer([&] {
    Rng rng(4242);
    while (!stop.load()) {
      const int64_t scene = rng.randint(0, eval_->size() - 1);
      const ConfigKind config = rng.bernoulli(0.5)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      auto f = server.try_submit(eval_->scene(scene).image, task_->id, config);
      if (f.admitted()) {
        streamed.push_back(Streamed{std::move(*f.future), scene, config});
      } else {
        // Backpressure is the only acceptable rejection while live.
        EXPECT_EQ(f.reject, RejectReason::kQueueFull);
        std::this_thread::yield();
      }
    }
  });

  // Onboard two tasks while the stream runs. Each becomes servable the
  // instant its snapshot is installed — no pause, no failed requests.
  std::vector<TaskHandle> onboarded;
  for (const int64_t library_task : {3, 4}) {
    TaskHandle task = fw_->define_task(data::task_by_id(library_task));
    fw_->prepare_task_specific(task);
    server.install_snapshot(fw_->publish());
    const auto now = server.current_snapshot();
    EXPECT_TRUE(now->servable(task.id, ConfigKind::kTaskSpecific));
    EXPECT_TRUE(now->servable(task.id, ConfigKind::kQuantizedMultiTask));
    // Requests admitted after the install serve the new task immediately.
    // (Retry on backpressure only — the streamer keeps the queue busy;
    // admission itself must accept the new task from the very first try.)
    for (const ConfigKind config :
         {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
      while (true) {
        auto f = server.try_submit(eval_->scene(0).image, task.id, config);
        if (!f.admitted()) {
          ASSERT_EQ(f.reject, RejectReason::kQueueFull);
          std::this_thread::yield();
          continue;
        }
        const InferenceResult r = f.future->get();
        EXPECT_GE(r.snapshot_version, now->version());
        break;
      }
    }
    onboarded.push_back(std::move(task));
  }
  stop.store(true);
  streamer.join();
  server.shutdown();

  // Every admitted streamed request completed (futures all fulfilled, no
  // exceptions): zero failures or sheds attributable to the swaps.
  int64_t streamed_before = 0;
  int64_t streamed_after = 0;
  for (auto& s : streamed) {
    InferenceResult r = s.future.get();
    EXPECT_GE(r.snapshot_version, base_version);
    EXPECT_LE(r.snapshot_version, base_version + 2);
    (r.snapshot_version == base_version ? streamed_before : streamed_after)++;
    // Identity holds whichever snapshot version served the request: the
    // streaming task's models were published before onboarding began and
    // prepare_* replaces rather than mutates, so every version serves the
    // same weights for it.
    const auto serial = fw_->detect(eval_->scene(s.scene).image, *task_,
                                    s.config);
    expect_same_detections(r.detections, serial);
  }
  EXPECT_GT(streamed_before + streamed_after, 0);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 0);
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 0);
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 0);
  EXPECT_EQ(server.metrics().counter("snapshots_published").value(), 3);
  EXPECT_EQ(server.metrics().counter("tasks_onboarded").value(), 2);

  // The onboarded tasks' serving results match their serial paths too.
  for (const TaskHandle& task : onboarded) {
    const auto snapshot = server.current_snapshot();
    Tensor images({4, 3, 24, 24});
    for (int64_t i = 0; i < 4; ++i) images.set_index(i, eval_->scene(i).image);
    for (const ConfigKind config :
         {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
      const auto serial = fw_->detect_batch(images, task, config);
      const auto served = snapshot->infer_batch(images, task.id, config);
      ASSERT_EQ(serial.size(), served.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        expect_same_detections(served[i], serial[i]);
      }
    }
  }
}

// ---------------------------------------------------------------- arena ----
// The allocation-free steady-state serving suite. These tests (plus the
// Arena*/ArenaScope*/ScratchVec* units in test_tensor and the GemmArena*
// cases in test_gemm) run first under ASan in CI — filter `*Arena*`.

TEST(AttentionCoreArena, WarmCallAtBatch8MakesNoHeapAllocation) {
  // attention_core takes its outputs and its Kᵀ panel from the bound arena:
  // once warm, a batch-8 call at the student shape (T 10, D 40) and at
  // T 17, D 64 (a token tail) makes no heap allocation and does not
  // overflow.
  Rng rng(7);
  for (const auto& [t, d] : {std::pair<int64_t, int64_t>{10, 40}, {17, 64}}) {
    const Tensor qkv = rng.randn({8, t, 3 * d});
    Arena arena(1 << 20);
    ArenaScope scope(arena);
    (void)nn::attention_core(qkv, 4);  // warm
    arena.reset();
    const int64_t before = allocdebug::thread_alloc_count();
    {
      const nn::AttentionCore core = nn::attention_core(qkv, 4);
      EXPECT_EQ(core.ctx.shape(), (Shape{8, t, d}));
    }
    EXPECT_EQ(allocdebug::thread_alloc_count(), before) << "T " << t;
    EXPECT_EQ(arena.overflow_allocs(), 0);
  }
}

TEST_F(RuntimeServing, ArenaZeroSteadyStateAllocationsBothConfigs) {
  // The headline contract: after warmup, a serving worker performs ZERO heap
  // allocations inside the arena-scoped hot region (batch stacking + full
  // model inference, INT8 scratch included) — on both deployable
  // configurations. The instrumented operator new at the top of this file
  // feeds the `hot_path_allocs` counter.
  RuntimeOptions opts;
  opts.workers = 1;          // one worker = one arena = exact accounting
  opts.max_batch = 4;
  opts.max_wait_us = 50000;  // a burst of max_batch same-config requests
                             // always closes as ONE full batch (FIFO pop),
                             // never split by scheduling jitter
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);
  const auto drive = [&](int64_t rounds) {
    for (int64_t r = 0; r < rounds; ++r) {
      for (const ConfigKind config :
           {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
        std::vector<std::future<InferenceResult>> futures;
        for (int64_t i = 0; i < opts.max_batch; ++i) {
          auto f = server.try_submit(eval_->scene(i).image, task_->id, config);
          ASSERT_TRUE(f.admitted());
          futures.push_back(std::move(*f.future));
        }
        for (auto& f : futures) {
          // Full homogeneous micro-batches: the worst-case (largest) arena
          // footprint from the very first round.
          EXPECT_EQ(f.get().batch_size, opts.max_batch);
        }
      }
    }
  };
  drive(2);  // warmup: both configs at the full batch size
  const int64_t warm = server.metrics().counter("hot_path_allocs").value();
  // The arena was sized at install, so even the first batches allocate
  // nothing.
  EXPECT_EQ(warm, 0);
  drive(4);  // steady state: 8 more micro-batches across both configs
  EXPECT_EQ(server.metrics().counter("hot_path_allocs").value(), warm)
      << "the serving hot path heap-allocated after warmup";
  // plan_workspace() sized the arena to cover every group: nothing spilled,
  // and the per-group high water stays within the planned capacity.
  EXPECT_EQ(server.metrics().counter("arena_overflow_allocs").value(), 0);
  const auto used = server.metrics().histogram("arena_used_bytes").snapshot();
  EXPECT_EQ(used.count, 12);  // one sample per (config, model) group
  EXPECT_GT(used.max, 0.0);
  EXPECT_LE(used.max,
            static_cast<double>((*snap_)->plan_workspace(opts.max_batch)));
}

TEST_F(RuntimeServing, ArenaInt8ZeroAllocationsWhenTheBatchGrows) {
  expect_no_alloc_when_batch_grows(ConfigKind::kQuantizedMultiTask);
}

TEST_F(RuntimeServing, ArenaFp32ZeroAllocationsWhenTheBatchGrows) {
  expect_no_alloc_when_batch_grows(ConfigKind::kTaskSpecific);
}

TEST_F(RuntimeServing, ArenaResultsElementWiseIdenticalToSerial) {
  // The arena only moves where intermediates live, never the arithmetic:
  // every request's detections are element-wise identical to the serial
  // path. Mixed configs in one stream exercise multiple groups — and arena
  // resets — per micro-batch.
  const auto config_of = [](int64_t i) {
    return (i % 2 == 0) ? ConfigKind::kTaskSpecific
                        : ConfigKind::kQuantizedMultiTask;
  };
  std::vector<std::future<InferenceResult>> futures;
  {
    RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = 4;
    opts.max_wait_us = 500;
    opts.queue_capacity = 64;
    InferenceServer server(*snap_, opts);
    for (int64_t i = 0; i < eval_->size(); ++i) {
      auto f =
          server.try_submit(eval_->scene(i).image, task_->id, config_of(i));
      ASSERT_TRUE(f.admitted());
      futures.push_back(std::move(*f.future));
    }
  }  // destructor drains: all futures fulfilled
  for (int64_t i = 0; i < eval_->size(); ++i) {
    InferenceResult r = futures[static_cast<size_t>(i)].get();
    const auto serial =
        fw_->detect(eval_->scene(i).image, *task_, config_of(i));
    expect_same_detections(r.detections, serial);
  }
}

TEST_F(RuntimeServing, ArenaSingletonGroupServesBorrowedViewIdentically) {
  // max_batch = 1 forces every group to be a singleton, which the worker
  // serves through a borrowed [1, C, H, W] view of the request's own tensor
  // — no stacking copy — still element-wise identical to the serial path.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);
  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    for (int64_t i = 0; i < 8; ++i) {
      auto f = server.try_submit(eval_->scene(i).image, task_->id, config);
      ASSERT_TRUE(f.admitted());
      InferenceResult r = f.future->get();
      EXPECT_EQ(r.batch_size, 1);
      const auto serial = fw_->detect(eval_->scene(i).image, *task_, config);
      expect_same_detections(r.detections, serial);
    }
  }
  EXPECT_EQ(server.metrics().counter("arena_overflow_allocs").value(), 0);
}

TEST_F(RuntimeServing, ArenaPlanWorkspaceMeasuresMonotoneCapacity) {
  const int64_t one = (*snap_)->plan_workspace(1);
  const int64_t four = (*snap_)->plan_workspace(4);
  EXPECT_GT(one, 0);
  EXPECT_GE(four, one);  // bigger micro-batches need at least as much
  EXPECT_EQ(one % Arena::kAlign, 0);  // rounded bump accounting
  EXPECT_THROW((*snap_)->plan_workspace(0), std::invalid_argument);
}

// ------------------------------------------------------------- fleet ----
// The sharded serving tier. These suites (plus test_runtime_units) run
// first under TSan in CI — filters `RuntimeServing.Fleet*` etc.

TEST_F(RuntimeServing, AdmissionCountersCachedWithStableExposition) {
  // The hot-path counters are resolved once at construction now; the
  // exposition output must be unchanged in names and values — and every
  // admission counter (including the new snapshot_version_skew) visible
  // from the very first scrape, before any traffic touches it.
  RuntimeOptions opts;
  opts.workers = 1;
  InferenceServer server(fw_->publish(), opts);
  const std::string cold = to_prometheus(collect(server.metrics()));
  for (const char* line :
       {"itask_requests_submitted 0", "itask_requests_invalid 0",
        "itask_rejected_queue_full 0", "itask_rejected_shutdown 0",
        "itask_snapshot_version_skew 0", "itask_snapshots_published 1",
        "itask_tasks_onboarded 0"}) {
    EXPECT_NE(cold.find(line), std::string::npos) << line;
  }

  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < 4; ++i) {
    auto f = server.try_submit(eval_->scene(i).image, task_->id,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    futures.push_back(std::move(*f.future));
  }
  EXPECT_THROW(server.try_submit(eval_->scene(0).image, kg::TaskId{999999},
                                 ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  for (auto& f : futures) f.get();
  server.shutdown();
  auto rejected = server.try_submit(eval_->scene(0).image, task_->id,
                                    ConfigKind::kQuantizedMultiTask);
  EXPECT_EQ(rejected.reject, RejectReason::kShuttingDown);

  const std::string warm = to_prometheus(collect(server.metrics()));
  for (const char* line :
       {"itask_requests_submitted 4", "itask_requests_invalid 1",
        "itask_rejected_queue_full 0", "itask_rejected_shutdown 1",
        "itask_requests_completed 4", "itask_snapshot_version_skew 0"}) {
    EXPECT_NE(warm.find(line), std::string::npos) << line;
  }
}

TEST_F(RuntimeServing, SnapshotVersionSkewCountedWhenInstallRacesQueue) {
  // try_submit validates against the snapshot current at admission; the
  // worker may acquire a newer one. Stall the worker inside request 0's
  // inference, admit request 1, install a newer snapshot, release: request
  // 1 is served under the new version but was admitted under the old — one
  // counted skew, zero failures (tables only grow, weights identical).
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int64_t> groups_seen{0};
  opts.fault_injector = [&gate, &groups_seen](const FaultSite&) {
    if (groups_seen.fetch_add(1) == 0) gate.wait();  // stall first group only
  };
  const auto before = fw_->publish();
  InferenceServer server(before, opts);

  auto f0 = server.try_submit(eval_->scene(0).image, task_->id,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f0.admitted());
  while (groups_seen.load() == 0) std::this_thread::yield();
  // Worker is now mid-batch holding `before`; admit under `before`, then
  // install the newer snapshot before the worker can pick request 1 up.
  auto f1 = server.try_submit(eval_->scene(1).image, task_->id,
                              ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(f1.admitted());
  server.install_snapshot(fw_->publish());
  release.set_value();

  const InferenceResult r0 = f0.future->get();
  const InferenceResult r1 = f1.future->get();
  EXPECT_EQ(r0.snapshot_version, before->version());
  EXPECT_EQ(r1.snapshot_version, before->version() + 1);
  server.shutdown();
  EXPECT_EQ(server.metrics().counter("snapshot_version_skew").value(), 1);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 0);
  // Results stay element-wise identical whichever version served them.
  expect_same_detections(r1.detections,
                         fw_->detect(eval_->scene(1).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
}

TEST_F(RuntimeServing, FleetDetectionsIdenticalToSerialAtAnyShardCount) {
  // The fleet-level determinism contract: the same request set produces
  // detections element-wise identical to the serial pipeline at every
  // shard count and replication — routing and sharding never change a bit.
  const auto snapshot = fw_->publish();
  for (const int64_t shards : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    FleetOptions fo;
    fo.shards = shards;
    fo.replication = 2;  // clamped to 1 when shards == 1
    fo.shard_options.workers = 2;
    fo.shard_options.max_batch = 4;
    fo.shard_options.max_wait_us = 300;
    InferenceFleet fleet(snapshot, fo);
    const std::vector<int64_t> replicas = fleet.router().replicas(task_->id);

    const auto config_of = [](int64_t i) {
      return (i % 2 == 0) ? ConfigKind::kTaskSpecific
                          : ConfigKind::kQuantizedMultiTask;
    };
    std::vector<std::future<InferenceResult>> futures;
    for (int64_t i = 0; i < eval_->size(); ++i) {
      FleetSubmitResult r = fleet.try_submit(eval_->scene(i).image, task_->id,
                                             config_of(i), /*tenant=*/0);
      ASSERT_TRUE(r.admitted());
      // Routed within the task's replica set, never sprayed elsewhere.
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), r.shard),
                replicas.end());
      futures.push_back(std::move(*r.future));
    }
    fleet.shutdown();
    for (int64_t i = 0; i < eval_->size(); ++i) {
      const InferenceResult r = futures[static_cast<size_t>(i)].get();
      expect_same_detections(
          r.detections,
          fw_->detect(eval_->scene(i).image, *task_, config_of(i)));
    }
    // Single-task traffic with replication 2 spreads across exactly the
    // replica set (round-robin rotation), nothing else.
    int64_t shard_submitted = 0;
    for (const int64_t s : replicas) {
      shard_submitted +=
          fleet.shard(s).metrics().counter("requests_submitted").value();
    }
    EXPECT_EQ(shard_submitted, eval_->size());
    EXPECT_EQ(fleet.metrics().counter("fleet_admitted").value(),
              eval_->size());
  }
}

TEST_F(RuntimeServing, FleetRejectsNonFinitePixelsThroughItsShard) {
  FleetOptions fo;
  fo.shards = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(fw_->publish(), fo);
  const Tensor& good = eval_->scene(0).image;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(fleet.try_submit(with_bad_pixel(good, bad), task_->id,
                                  ConfigKind::kQuantizedMultiTask),
                 std::invalid_argument);
    std::vector<Tensor> views = {with_bad_pixel(good, bad), good};
    EXPECT_THROW(fleet.try_submit_group(std::move(views), task_->id,
                                        ConfigKind::kTaskSpecific),
                 std::invalid_argument);
  }
  int64_t invalid = 0;
  int64_t submitted = 0;
  for (int64_t s = 0; s < fo.shards; ++s) {
    invalid += fleet.shard(s).metrics().counter("requests_invalid").value();
    submitted +=
        fleet.shard(s).metrics().counter("requests_submitted").value();
  }
  EXPECT_EQ(invalid, 4);
  EXPECT_EQ(submitted, 0);
  EXPECT_EQ(fleet.metrics().counter("fleet_admitted").value(), 0);
  const FleetSubmitResult ok = fleet.try_submit(
      good, task_->id, ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(ok.admitted());
  fleet.shutdown();
}

TEST_F(RuntimeServing, FleetCountsShardRejectedMalformedRequests) {
  FleetOptions fo;
  fo.shards = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(fw_->publish(), fo);
  const Tensor& good = eval_->scene(0).image;
  const Tensor nan_pixel =
      with_bad_pixel(good, std::numeric_limits<float>::quiet_NaN());
  const Tensor bad_shape({3, 2, 2});
  for (const Tensor* bad : {&nan_pixel, &bad_shape}) {
    EXPECT_THROW(fleet.try_submit(*bad, task_->id,
                                  ConfigKind::kQuantizedMultiTask),
                 std::invalid_argument);
    EXPECT_THROW(fleet.try_submit_group({good, *bad}, task_->id,
                                        ConfigKind::kTaskSpecific),
                 std::invalid_argument);
  }
  EXPECT_EQ(fleet.metrics().counter("fleet_requests_invalid").value(), 4);
  EXPECT_EQ(fleet.metrics().counter("fleet_submitted").value(), 4);
  EXPECT_EQ(fleet.metrics().counter("fleet_admitted").value(), 0);
  // A negative deadline and a group larger than the shard's queue throw from
  // the shard; an empty group throws from the fleet before routing. Each is
  // counted on the surface that throws, so the fleet's count is the shards'
  // plus its own empty-group rejection.
  EXPECT_THROW(fleet.try_submit(good, task_->id,
                                ConfigKind::kQuantizedMultiTask, 0, -1),
               std::invalid_argument);
  EXPECT_THROW(fleet.try_submit_group({good}, task_->id,
                                      ConfigKind::kTaskSpecific, 0, -1),
               std::invalid_argument);
  EXPECT_THROW(
      fleet.try_submit_group(
          std::vector<Tensor>(
              static_cast<size_t>(fo.shard_options.queue_capacity + 1), good),
          task_->id, ConfigKind::kTaskSpecific),
      std::invalid_argument);
  EXPECT_THROW(fleet.try_submit_group({}, task_->id, ConfigKind::kTaskSpecific),
               std::invalid_argument);
  int64_t shard_invalid = 0;
  for (int64_t s = 0; s < fleet.shard_count(); ++s) {
    shard_invalid +=
        fleet.shard(s).metrics().counter("requests_invalid").value();
  }
  EXPECT_EQ(shard_invalid, 7);
  EXPECT_EQ(fleet.metrics().counter("fleet_requests_invalid").value(), 8);
  EXPECT_EQ(fleet.metrics().counter("fleet_submitted").value(), 7);
  const FleetSubmitResult ok = fleet.try_submit(
      good, task_->id, ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(ok.admitted());
  EXPECT_EQ(fleet.metrics().counter("fleet_requests_invalid").value(), 8);
  fleet.shutdown();
}

TEST_F(RuntimeServing, FleetQuotaRejectionAccountingAndWindowReset) {
  FleetOptions fo;
  fo.shards = 2;
  fo.tenant_quota = 3;
  fo.quota_window = 8;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(fw_->publish(), fo);
  std::vector<std::future<InferenceResult>> futures;
  const auto submit = [&](int64_t tenant) {
    FleetSubmitResult r =
        fleet.try_submit(eval_->scene(0).image, task_->id,
                         ConfigKind::kQuantizedMultiTask, tenant);
    if (r.admitted()) futures.push_back(std::move(*r.future));
    return r.reject;
  };
  // Tenant 7 saturates its quota: 3 admitted, then kTenantQuota.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(submit(7), RejectReason::kNone);
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(fleet.tenant_window_admissions(7), 3);
  // Fairness: a light tenant keeps landing while 7 is capped.
  EXPECT_EQ(submit(8), RejectReason::kNone);
  EXPECT_EQ(fleet.tenant_window_admissions(8), 1);
  // Attempts so far: 6. Two more rejected attempts fill the window of 8;
  // the next attempt rolls it and tenant 7's fairness counter resets.
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(submit(7), RejectReason::kTenantQuota);
  EXPECT_EQ(submit(7), RejectReason::kNone);  // fresh window
  EXPECT_EQ(fleet.tenant_window_admissions(7), 1);

  EXPECT_EQ(fleet.metrics().counter("fleet_quota_rejected").value(), 4);
  EXPECT_EQ(fleet.metrics().counter("fleet_admitted").value(), 5);
  EXPECT_EQ(fleet.metrics().counter("fleet_submitted").value(), 9);
  EXPECT_EQ(fleet.metrics().counter("fleet_fairness_window_resets").value(),
            1);
  fleet.shutdown();
  for (auto& f : futures) f.get();  // every admitted request completed
  // Quota rejections never reached a shard: per-shard admission counts add
  // up to exactly the fleet's admissions.
  EXPECT_EQ(fleet.shard(0).metrics().counter("requests_submitted").value() +
                fleet.shard(1).metrics().counter("requests_submitted").value(),
            5);
}

TEST_F(RuntimeServing, FleetStagedRolloutFailureRollsBackAndResumes) {
  const auto v1 = fw_->publish();
  FleetOptions fo;
  fo.shards = 3;
  fo.shard_options.workers = 1;
  std::atomic<int64_t> injected{0};
  fo.rollout_hook = [&injected](int64_t shard, int64_t /*version*/) {
    // Fail exactly the first attempt to install on shard 1.
    if (shard == 1 && injected.fetch_add(1) == 0) {
      throw std::runtime_error("injected mid-rollout shard failure");
    }
  };
  InferenceFleet fleet(v1, fo);

  const TaskHandle fresh = fw_->define_task(data::task_by_id(5));
  const auto v2 = fw_->publish();
  const RolloutResult first = fleet.install_snapshot(v2);
  EXPECT_FALSE(first.complete());
  EXPECT_EQ(first.version, v2->version());
  EXPECT_EQ(first.failed_shard, 1);
  EXPECT_EQ(first.installed, 1);  // shard 0 took it before the failure
  EXPECT_NE(first.error.find("injected"), std::string::npos);
  // The rollback state: mixed versions, shard 0 new, shards 1-2 old.
  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{v2->version(), v1->version(),
                                  v1->version()}));

  // Mixed versions keep serving the old task everywhere (skew tolerance).
  FleetSubmitResult old_task = fleet.try_submit(
      eval_->scene(0).image, task_->id, ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(old_task.admitted());
  expect_same_detections(old_task.future->get().detections,
                         fw_->detect(eval_->scene(0).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  // The new task routes only to replicas that already took v2: servable iff
  // its (replication 1) primary is shard 0, a deterministic router fact.
  const int64_t fresh_primary = fleet.router().replicas(fresh.id)[0];
  if (fresh_primary == 0) {
    FleetSubmitResult r = fleet.try_submit(eval_->scene(0).image, fresh.id,
                                           ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(r.admitted());
    r.future->get();
  } else {
    EXPECT_THROW(fleet.try_submit(eval_->scene(0).image, fresh.id,
                                  ConfigKind::kQuantizedMultiTask),
                 std::invalid_argument);
  }

  // Retrying the same snapshot resumes at the failed shard (shard 0 is
  // already current and skipped) and completes the rollout.
  const RolloutResult second = fleet.install_snapshot(v2);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.already_current, 1);
  EXPECT_EQ(second.installed, 2);
  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{v2->version(), v2->version(),
                                  v2->version()}));
  FleetSubmitResult now_servable = fleet.try_submit(
      eval_->scene(1).image, fresh.id, ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(now_servable.admitted());
  expect_same_detections(now_servable.future->get().detections,
                         fw_->detect(eval_->scene(1).image, fresh,
                                     ConfigKind::kQuantizedMultiTask));

  EXPECT_EQ(fleet.metrics().counter("fleet_rollouts_started").value(), 2);
  EXPECT_EQ(fleet.metrics().counter("fleet_rollouts_failed").value(), 1);
  EXPECT_EQ(fleet.metrics().counter("fleet_rollouts_completed").value(), 1);
  EXPECT_EQ(fleet.metrics().counter("fleet_shard_installs").value(), 3);

  // The skew-tolerance contract gate: a snapshot that DROPS a served task
  // is refused before any shard changes (task tables only grow).
  const auto stripped = std::make_shared<const core::DeploymentSnapshot>(
      v2->version() + 100, v2->expected_input_shape(), kg::TaskTable{},
      std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>>{}, nullptr,
      core::DetectionPipeline{});
  EXPECT_THROW(fleet.install_snapshot(stripped), std::invalid_argument);
  EXPECT_THROW(fleet.install_snapshot(nullptr), std::invalid_argument);
  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{v2->version(), v2->version(),
                                  v2->version()}));
}

TEST_F(RuntimeServing, FleetServesIdenticallyThroughStagedRollout) {
  // The fleet twin of LiveOnboardingServesThroughPublishes: one thread
  // streams mixed-config requests while this thread runs a staged rollout
  // (slowed per shard to widen the mixed-version window). Every streamed
  // result must be element-wise identical to the serial path whatever
  // version/shard served it, with zero failures — determinism at any
  // rollout interleaving. Run under -DITASK_SANITIZE=thread.
  FleetOptions fo;
  fo.shards = 2;
  fo.shard_options.workers = 2;
  fo.shard_options.max_batch = 4;
  fo.shard_options.max_wait_us = 300;
  fo.shard_options.queue_capacity = 128;
  fo.rollout_hook = [](int64_t /*shard*/, int64_t /*version*/) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  InferenceFleet fleet(fw_->publish(), fo);

  struct Streamed {
    std::future<InferenceResult> future;
    int64_t scene = 0;
    ConfigKind config = ConfigKind::kQuantizedMultiTask;
  };
  std::vector<Streamed> streamed;
  std::atomic<bool> stop{false};
  std::thread streamer([&] {
    Rng rng(777);
    while (!stop.load()) {
      const int64_t scene = rng.randint(0, eval_->size() - 1);
      const ConfigKind config = rng.bernoulli(0.5)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      FleetSubmitResult r =
          fleet.try_submit(eval_->scene(scene).image, task_->id, config);
      if (r.admitted()) {
        streamed.push_back(Streamed{std::move(*r.future), scene, config});
      } else {
        EXPECT_EQ(r.reject, RejectReason::kQueueFull);
        std::this_thread::yield();
      }
    }
  });

  const TaskHandle stormed =
      fw_->define_task_from_text("find bright markers during the rollout");
  const auto next = fw_->publish();
  const RolloutResult rollout = fleet.install_snapshot(next);
  EXPECT_TRUE(rollout.complete());
  EXPECT_EQ(rollout.installed, 2);
  stop.store(true);
  streamer.join();
  fleet.shutdown();

  EXPECT_EQ(fleet.shard_versions(),
            (std::vector<int64_t>{next->version(), next->version()}));
  EXPECT_TRUE(
      fleet.shard(0).current_snapshot()->has_task(stormed.id));
  for (Streamed& s : streamed) {
    const InferenceResult r = s.future.get();
    expect_same_detections(
        r.detections, fw_->detect(eval_->scene(s.scene).image, *task_,
                                  s.config));
  }
  EXPECT_GT(streamed.size(), 0u);
  for (const int64_t s : {int64_t{0}, int64_t{1}}) {
    EXPECT_EQ(fleet.shard(s).metrics().counter("requests_failed").value(), 0);
    EXPECT_EQ(fleet.shard(s).metrics().counter("requests_invalid").value(),
              0);
  }
  EXPECT_EQ(fleet.metrics().counter("fleet_requests_invalid").value(), 0);
}

TEST_F(RuntimeServing, FleetMergedScrapeAggregatesShardAndFleetRegistries) {
  FleetOptions fo;
  fo.shards = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(fw_->publish(), fo);
  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < 8; ++i) {
    FleetSubmitResult r = fleet.try_submit(
        eval_->scene(i).image, task_->id, ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(r.admitted());
    futures.push_back(std::move(*r.future));
  }
  for (auto& f : futures) f.get();
  fleet.shutdown();

  const RegistrySnapshot merged = fleet.merged_metrics();
  const auto counter = [&merged](const char* name) -> int64_t {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return v;
    }
    return -1;
  };
  // Shard registries summed…
  EXPECT_EQ(counter("requests_completed"), 8);
  EXPECT_EQ(counter("requests_submitted"), 8);
  EXPECT_EQ(counter("snapshots_published"), 2);  // one per shard
  // …and the fleet's own counters ride in the same scrape.
  EXPECT_EQ(counter("fleet_admitted"), 8);
  EXPECT_EQ(counter("fleet_submitted"), 8);
  const auto histogram =
      [&merged](const char* name) -> Histogram::Snapshot {
    for (const auto& [n, s] : merged.histograms) {
      if (n == name) return s;
    }
    return {};
  };
  EXPECT_EQ(histogram("stage_total_us").count, 8);  // across both shards

  // The merged snapshot renders through the existing exposition unchanged —
  // one Prometheus scrape for the whole fleet.
  const std::string text = to_prometheus(ExpositionData{merged, {}});
  EXPECT_NE(text.find("itask_requests_completed 8"), std::string::npos);
  EXPECT_NE(text.find("itask_fleet_admitted 8"), std::string::npos);
  EXPECT_NE(text.find("itask_stage_total_us_count 8"), std::string::npos);
}

TEST_F(RuntimeServing, FleetValidatesOptionsAndShardAccess) {
  const auto snapshot = fw_->publish();
  FleetOptions fo;
  fo.shards = 0;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  fo = {};
  fo.tenant_quota = -1;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  fo = {};
  fo.quota_window = 0;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  fo = {};
  EXPECT_THROW(InferenceFleet(nullptr, fo), std::invalid_argument);
  // Fusion options are checked when each shard's server is built, by the
  // rule fuse_views applies: a bad value never reaches a group's finisher.
  fo = {};
  fo.shard_options.fusion.min_views = 0;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  fo = {};
  fo.shard_options.fusion.merge_iou = 1.0f;
  EXPECT_THROW(InferenceFleet(snapshot, fo), std::invalid_argument);
  RuntimeOptions bad_fusion;
  bad_fusion.fusion.merge_iou = -0.1f;
  EXPECT_THROW(InferenceServer(snapshot, bad_fusion), std::invalid_argument);

  fo = {};
  fo.shards = 2;
  fo.shard_options.workers = 1;
  InferenceFleet fleet(snapshot, fo);
  EXPECT_THROW(fleet.shard(-1), std::invalid_argument);
  EXPECT_THROW(fleet.shard(2), std::invalid_argument);
  fleet.shutdown();  // idempotent, and admission reports shutdown after
  fleet.shutdown();
  const FleetSubmitResult r = fleet.try_submit(
      eval_->scene(0).image, task_->id, ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(r.admitted());
  EXPECT_EQ(r.reject, RejectReason::kShuttingDown);
  EXPECT_EQ(reject_reason_name(RejectReason::kTenantQuota),
            std::string("tenant_quota"));
}

// ------------------------------------------------ group requests (serving) ----

TEST_F(RuntimeServing, GroupSubmitFusedMatchesSerialFusionBothConfigs) {
  // The scatter/gather contract end to end: a K-view group request's fused
  // detections are element-wise identical to fusing the K per-view serial
  // results outside the runtime — for both deployable configurations, while
  // ordinary sibling requests interleave in the same batcher.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 300;
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);

  for (const ConfigKind config :
       {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
    std::vector<std::future<GroupInferenceResult>> groups;
    std::vector<std::future<InferenceResult>> singles;
    constexpr int64_t kViews = 3;
    for (int64_t i = 0; i < 6; ++i) {
      auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                          0.05f, 900 + (uint64_t)i);
      auto g = server.try_submit_group(std::move(views), task_->id, config);
      ASSERT_TRUE(g.admitted());
      groups.push_back(std::move(*g.future));
      auto s = server.try_submit(eval_->scene(i).image, task_->id, config);
      ASSERT_TRUE(s.admitted());
      singles.push_back(std::move(*s.future));
    }
    for (int64_t i = 0; i < 6; ++i) {
      GroupInferenceResult g = groups[static_cast<size_t>(i)].get();
      EXPECT_EQ(g.view_count, kViews);
      ASSERT_EQ(g.views.size(), static_cast<size_t>(kViews));
      // Serial fusion over per-view serial detections.
      const auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                                0.05f, 900 + (uint64_t)i);
      std::vector<std::vector<detect::Detection>> per_view;
      for (const Tensor& v : views) {
        per_view.push_back(fw_->detect(v, *task_, config));
      }
      for (int64_t v = 0; v < kViews; ++v) {
        expect_same_detections(g.views[static_cast<size_t>(v)].detections,
                               per_view[static_cast<size_t>(v)]);
      }
      expect_same_detections(
          g.fused, detect::fuse_views(per_view, server.options().fusion));
      // Interleaved ordinary traffic is untouched by group machinery.
      expect_same_detections(
          singles[static_cast<size_t>(i)].get().detections,
          fw_->detect(eval_->scene(i).image, *task_, config));
    }
  }
  server.shutdown();
  EXPECT_EQ(server.metrics().counter("groups_submitted").value(), 12);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 12);
  EXPECT_EQ(server.metrics().counter("groups_failed").value(), 0);
  // Each group contributed its K views to the ordinary request counters.
  EXPECT_EQ(server.metrics().counter("requests_submitted").value(),
            12 * 3 + 12);
  EXPECT_EQ(server.metrics().histogram("group_fuse_us").snapshot().count, 12);
}

TEST_F(RuntimeServing, GroupFleetFusedIdenticalAtAnyShardCount) {
  // The fleet twin inherits the whole contract: fused detections are
  // element-wise identical to serial fusion at every shard count, and the
  // group lands on exactly one shard of the task's replica set.
  const auto snapshot = fw_->publish();
  constexpr int64_t kViews = 3;
  for (const int64_t shards : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    FleetOptions fo;
    fo.shards = shards;
    fo.replication = 2;
    fo.shard_options.workers = 2;
    fo.shard_options.max_batch = 4;
    fo.shard_options.max_wait_us = 300;
    InferenceFleet fleet(snapshot, fo);
    const std::vector<int64_t> replicas = fleet.router().replicas(task_->id);

    std::vector<std::future<GroupInferenceResult>> futures;
    for (int64_t i = 0; i < 6; ++i) {
      const ConfigKind config = (i % 2 == 0)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                          0.05f, 500 + (uint64_t)i);
      FleetGroupSubmitResult r =
          fleet.try_submit_group(std::move(views), task_->id, config);
      ASSERT_TRUE(r.admitted());
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), r.shard),
                replicas.end());
      futures.push_back(std::move(*r.future));
    }
    fleet.shutdown();
    for (int64_t i = 0; i < 6; ++i) {
      const ConfigKind config = (i % 2 == 0)
                                    ? ConfigKind::kTaskSpecific
                                    : ConfigKind::kQuantizedMultiTask;
      const auto views = detect::jittered_views(eval_->scene(i).image, kViews,
                                                0.05f, 500 + (uint64_t)i);
      std::vector<std::vector<detect::Detection>> per_view;
      for (const Tensor& v : views) {
        per_view.push_back(fw_->detect(v, *task_, config));
      }
      expect_same_detections(
          futures[static_cast<size_t>(i)].get().fused,
          detect::fuse_views(per_view,
                             fo.shard_options.fusion));
    }
  }
}

TEST_F(RuntimeServing, GroupFaultIsolationFailsOnlyTheGroup) {
  // A fault in ONE view's inference fails the whole logical group — typed
  // as GroupViewFault naming the lowest failed view — while a sibling
  // ordinary request in the same server (and later groups) are unaffected.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;  // one view per micro-batch → the injector can target
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  std::atomic<int64_t> injections{0};
  opts.fault_injector = [&injections](const FaultSite& site) {
    // Request ids 0..2 are the first group's views; fail view 1 only.
    if (site.first_request_id == 1) {
      injections.fetch_add(1);
      throw std::runtime_error("injected view fault");
    }
  };
  InferenceServer server(*snap_, opts);

  auto views = detect::jittered_views(eval_->scene(0).image, 3, 0.05f, 31);
  auto g = server.try_submit_group(std::move(views), task_->id,
                                   ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(g.admitted());
  auto s = server.try_submit(eval_->scene(1).image, task_->id,
                             ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(s.admitted());

  // The sibling ordinary request is untouched.
  expect_same_detections(s.future->get().detections,
                         fw_->detect(eval_->scene(1).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  // A later group on the same still-running server completes normally.
  auto views2 = detect::jittered_views(eval_->scene(2).image, 2, 0.05f, 32);
  auto g2 = server.try_submit_group(std::move(views2), task_->id,
                                    ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(g2.admitted());
  EXPECT_EQ(g2.future->get().view_count, 2);
  // Read the typed fault AFTER shutdown: the worker's release of its last
  // gather reference is then joined, so inspecting the rethrown exception's
  // internals (what(), a COW string inside uninstrumented libstdc++) is
  // TSan-visibly ordered. The synchronization while serving is the atomic
  // exception_ptr refcount, which TSan cannot see into.
  server.shutdown();
  try {
    g.future->get();
    FAIL() << "group with a faulted view must not resolve with a value";
  } catch (const GroupViewFault& fault) {
    EXPECT_EQ(fault.first_failed_view(), 1);
    EXPECT_EQ(fault.failed_views(), 1);
    EXPECT_NE(std::string(fault.what()).find("injected view fault"),
              std::string::npos);
  }

  EXPECT_EQ(injections.load(), 1);
  EXPECT_EQ(server.metrics().counter("groups_failed").value(), 1);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 1);
  EXPECT_EQ(server.metrics().counter("requests_failed").value(), 1);
}

TEST_F(RuntimeServing, GroupDeadlineShedFailsTypedWhileSiblingServes) {
  // Stall the only worker on an ordinary no-deadline request, queue a group
  // with a 2 ms deadline plus a generous-deadline sibling, release after the
  // deadline passed: every view of the group is shed at batch formation and
  // the group future fails as GroupViewFault (the DeadlineExceeded cause in
  // its message), while the sibling serves.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 64;
  std::atomic<bool> release{false};
  opts.fault_injector = [&release](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  InferenceServer server(*snap_, opts);

  auto stall = server.try_submit(eval_->scene(0).image, task_->id,
                                 ConfigKind::kQuantizedMultiTask,
                                 /*deadline_us=*/0);
  ASSERT_TRUE(stall.admitted());
  auto views = detect::jittered_views(eval_->scene(1).image, 3, 0.05f, 41);
  auto g = server.try_submit_group(std::move(views), task_->id,
                                   ConfigKind::kQuantizedMultiTask,
                                   /*deadline_us=*/2000);
  ASSERT_TRUE(g.admitted());
  auto s = server.try_submit(eval_->scene(2).image, task_->id,
                             ConfigKind::kQuantizedMultiTask,
                             /*deadline_us=*/60'000'000);
  ASSERT_TRUE(s.admitted());

  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // > 2 ms
  release.store(true);
  server.shutdown();

  try {
    g.future->get();
    FAIL() << "expired group must not resolve with a value";
  } catch (const GroupViewFault& fault) {
    EXPECT_EQ(fault.first_failed_view(), 0);
    EXPECT_EQ(fault.failed_views(), 3);
    EXPECT_NE(std::string(fault.what()).find("expired"), std::string::npos);
  }
  expect_same_detections(s.future->get().detections,
                         fw_->detect(eval_->scene(2).image, *task_,
                                     ConfigKind::kQuantizedMultiTask));
  EXPECT_EQ(server.metrics().counter("requests_expired").value(), 3);
  EXPECT_EQ(server.metrics().counter("groups_failed").value(), 1);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 0);
}

TEST_F(RuntimeServing, GroupAdmissionValidatesAndRejectsAtomically) {
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.queue_capacity = 4;
  std::atomic<bool> release{false};
  opts.fault_injector = [&release](const FaultSite& site) {
    if (site.first_request_id == 0) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  InferenceServer server(*snap_, opts);

  // Malformed groups throw at admission, like try_submit.
  EXPECT_THROW(server.try_submit_group({}, task_->id,
                                       ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  std::vector<Tensor> bad;
  bad.push_back(eval_->scene(0).image);
  bad.push_back(Tensor({3, 2, 2}));  // wrong shape, view index 1
  EXPECT_THROW(server.try_submit_group(std::move(bad), task_->id,
                                       ConfigKind::kQuantizedMultiTask),
               std::invalid_argument);
  // A group that could never fit the queue is a configuration error.
  EXPECT_THROW(
      server.try_submit_group(
          detect::jittered_views(eval_->scene(0).image, 5, 0.05f, 1), task_->id,
          ConfigKind::kQuantizedMultiTask),
      std::invalid_argument);
  // Each of the three counts once as requests_invalid.
  EXPECT_EQ(server.metrics().counter("requests_invalid").value(), 3);

  // Backpressure is all-or-nothing: stall the worker, fill the queue to 2 of
  // 4, then a 3-view group must reject whole (kQueueFull) without enqueuing
  // any view; a 2-view group still fits.
  auto stall = server.try_submit(eval_->scene(0).image, task_->id,
                                 ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(stall.admitted());  // picked up by the worker, then stalls
  std::vector<std::future<InferenceResult>> fillers;
  // Wait for the worker to take the stall request off the queue.
  while (server.metrics().counter("batches").value() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 2; ++i) {
    auto f = server.try_submit(eval_->scene(1).image, task_->id,
                               ConfigKind::kQuantizedMultiTask);
    ASSERT_TRUE(f.admitted());
    fillers.push_back(std::move(*f.future));
  }
  auto too_big = server.try_submit_group(
      detect::jittered_views(eval_->scene(2).image, 3, 0.05f, 2), task_->id,
      ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(too_big.admitted());
  EXPECT_EQ(too_big.reject, RejectReason::kQueueFull);
  auto fits = server.try_submit_group(
      detect::jittered_views(eval_->scene(2).image, 2, 0.05f, 2), task_->id,
      ConfigKind::kQuantizedMultiTask);
  ASSERT_TRUE(fits.admitted());
  release.store(true);
  server.shutdown();
  EXPECT_EQ(fits.future->get().view_count, 2);

  // After shutdown: kShuttingDown, again as a unit.
  auto late = server.try_submit_group(
      detect::jittered_views(eval_->scene(0).image, 2, 0.05f, 3), task_->id,
      ConfigKind::kQuantizedMultiTask);
  EXPECT_FALSE(late.admitted());
  EXPECT_EQ(late.reject, RejectReason::kShuttingDown);
  EXPECT_EQ(server.metrics().counter("rejected_queue_full").value(), 1);
  EXPECT_EQ(server.metrics().counter("rejected_shutdown").value(), 1);
}

TEST_F(RuntimeServing, GroupArenaZeroSteadyStateAllocationsWithGroupTraffic) {
  // The allocation-free hot-path contract survives group traffic: views ride
  // the same arena-scoped region as ordinary requests, and fusion runs
  // outside it — so after warmup, steady-state group serving adds ZERO heap
  // allocations to the metered region.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_wait_us = 50000;
  opts.queue_capacity = 64;
  InferenceServer server(*snap_, opts);
  const auto drive = [&](int64_t rounds) {
    for (int64_t r = 0; r < rounds; ++r) {
      for (const ConfigKind config :
           {ConfigKind::kTaskSpecific, ConfigKind::kQuantizedMultiTask}) {
        // One 4-view group = one full homogeneous micro-batch.
        auto g = server.try_submit_group(
            detect::jittered_views(eval_->scene(0).image, opts.max_batch,
                                   0.05f, 60 + (uint64_t)r),
            task_->id, config);
        ASSERT_TRUE(g.admitted());
        EXPECT_EQ(g.future->get().view_count, opts.max_batch);
      }
    }
  };
  drive(2);  // warmup
  const int64_t warm = server.metrics().counter("hot_path_allocs").value();
  EXPECT_LE(warm, 64);
  drive(4);  // steady state
  EXPECT_EQ(server.metrics().counter("hot_path_allocs").value(), warm)
      << "group serving heap-allocated in the hot path after warmup";
  EXPECT_EQ(server.metrics().counter("arena_overflow_allocs").value(), 0);
  EXPECT_EQ(server.metrics().counter("groups_completed").value(), 12);
}

// ------------------------------------------------- request lifecycle ----

TEST_F(RuntimeServing, LifecycleInterleavingResolvesEveryRequestOnce) {
  // Every admitted request resolves exactly once through the one terminal
  // routine, under seeded random interleavings of single and group submits
  // (K = 1-3), installs of newer publishes, injected faults, deadlines
  // (none, 1 us, large) and a shutdown part-way through, from 2-3 client
  // threads. Each seed checks: every admitted future becomes ready, with a
  // value or a typed exception; the request and group counters balance;
  // and every completed single equals the serial infer_batch of the
  // snapshot version that served it.
  struct InjectedFault : std::runtime_error {
    InjectedFault() : std::runtime_error("injected lifecycle fault") {}
  };
  constexpr uint64_t kSeeds = 24;
  constexpr int64_t kOpsPerThread = 12;
  constexpr int64_t kDeadlines[] = {0, 1, 60'000'000};
  const ConfigKind kConfigs[] = {ConfigKind::kTaskSpecific,
                                 ConfigKind::kQuantizedMultiTask};
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // The base snapshot plus two newer publishes the clients install, in
    // version order, while traffic runs.
    std::vector<std::shared_ptr<const core::DeploymentSnapshot>> snapshots;
    for (int i = 0; i < 3; ++i) snapshots.push_back(fw_->publish());
    std::set<int64_t> faulty_ids;
    for (int i = 0; i < 3; ++i) faulty_ids.insert(rng.randint(0, 20));

    RuntimeOptions opts;
    opts.workers = 2;
    opts.max_batch = rng.randint(1, 4);
    opts.max_wait_us = rng.randint(0, 200);
    opts.queue_capacity = 16;
    opts.fault_injector = [&faulty_ids](const FaultSite& site) {
      if (faulty_ids.count(site.first_request_id) > 0) throw InjectedFault();
    };
    InferenceServer server(snapshots.front(), opts);

    struct Single {
      std::future<InferenceResult> future;
      int64_t scene = 0;
      ConfigKind config = ConfigKind::kQuantizedMultiTask;
    };
    const int64_t threads = rng.randint(2, 3);
    const int64_t shutdown_thread = rng.randint(0, threads - 1);
    const int64_t shutdown_op =
        rng.randint(kOpsPerThread / 2, kOpsPerThread - 1);
    std::vector<std::vector<Single>> singles(static_cast<size_t>(threads));
    std::vector<std::vector<std::future<GroupInferenceResult>>> groups(
        static_cast<size_t>(threads));
    std::mutex install_mu;
    size_t installed = 1;
    std::vector<std::thread> clients;
    for (int64_t c = 0; c < threads; ++c) {
      clients.emplace_back([&, c, client_seed = seed * 100 + uint64_t(c)] {
        Rng op_rng(client_seed);
        for (int64_t op = 0; op < kOpsPerThread; ++op) {
          if (c == shutdown_thread && op == shutdown_op) server.shutdown();
          const int64_t kind = op_rng.randint(0, 9);
          const int64_t scene = op_rng.randint(0, eval_->size() - 1);
          const ConfigKind config = kConfigs[op_rng.randint(0, 1)];
          const int64_t deadline = kDeadlines[op_rng.randint(0, 2)];
          if (kind == 0) {
            std::lock_guard<std::mutex> lock(install_mu);
            if (installed < snapshots.size()) {
              server.install_snapshot(snapshots[installed++]);
            }
          } else if (kind <= 3) {
            auto views = detect::jittered_views(
                eval_->scene(scene).image, op_rng.randint(1, 3), 0.05f,
                client_seed * 1000 + uint64_t(op));
            auto g = server.try_submit_group(std::move(views), task_->id,
                                             config, deadline);
            if (g.admitted()) {
              groups[size_t(c)].push_back(std::move(*g.future));
            }
          } else {
            auto r = server.try_submit(eval_->scene(scene).image, task_->id,
                                       config, deadline);
            if (r.admitted()) {
              singles[size_t(c)].push_back(
                  Single{std::move(*r.future), scene, config});
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    // The shutdown drained every admitted request: each future is ready
    // now, and resolves to a value or one of the typed exceptions.
    for (auto& per_thread : singles) {
      for (Single& single : per_thread) {
        ASSERT_EQ(single.future.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready);
        try {
          const InferenceResult r = single.future.get();
          const auto& served = snapshots.at(static_cast<size_t>(
              r.snapshot_version - snapshots.front()->version()));
          ASSERT_EQ(served->version(), r.snapshot_version);
          const Tensor& image = eval_->scene(single.scene).image;
          const Shape& s = image.shape();
          const Tensor one =
              Tensor::borrow({1, s[0], s[1], s[2]}, image.data());
          expect_same_detections(
              r.detections,
              served->infer_batch(one, task_->id, single.config).front());
        } catch (const DeadlineExceeded&) {
        } catch (const InjectedFault&) {
        }
      }
    }
    for (auto& per_thread : groups) {
      for (auto& future : per_thread) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready);
        try {
          // A group only fuses when every view was served.
          const GroupInferenceResult g = future.get();
          EXPECT_EQ(g.views.size(), static_cast<size_t>(g.view_count));
          for (const InferenceResult& view : g.views) {
            EXPECT_GE(view.request_id, 0);
          }
        } catch (const GroupViewFault&) {
        }
      }
    }
    const auto count = [&server](const char* name) {
      return server.metrics().counter(name).value();
    };
    EXPECT_EQ(count("requests_submitted"),
              count("requests_completed") + count("requests_failed") +
                  count("requests_expired"));
    EXPECT_EQ(count("groups_submitted"),
              count("groups_completed") + count("groups_failed"));
  }
}

}  // namespace
}  // namespace itask::runtime
