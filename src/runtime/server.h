// The multi-threaded batched inference runtime (DESIGN.md §2 `runtime`,
// measured by servebench): a worker pool serving the paper's deployed dual-configuration
// models under concurrent load.
//
//   client threads ──try_submit──▶ BoundedQueue ──pop_batch──▶ workers
//        ▲ (SubmitResult carries        (micro-batches close at     │
//        │  the reject reason)           max_batch or max_wait)     │
//        └────────── std::future<InferenceResult> ◀── fulfil ───────┘
//
// The server holds an immutable core::DeploymentSnapshot behind an
// atomically swapped shared_ptr. Each worker acquires the pointer ONCE per
// micro-batch and runs the whole batch against that snapshot (RCU-style:
// an old snapshot retires when the last in-flight batch releases its
// reference), so install_snapshot() never blocks serving and the Framework
// may keep defining/preparing/publishing concurrently — a task becomes
// servable the instant a snapshot containing it is installed, with zero
// requests failed or shed attributable to the swap.
//
// Workers group each micro-batch by model — FP32 requests by (configuration,
// task id), since each task has its own student; INT8 requests by
// configuration alone, since one multi-task model serves every task — stack
// the images, and run the snapshot's thread-safe const inference entry point
// (`DeploymentSnapshot::infer_raw`, then `decode_batch` matching each image
// against its own task), so both deployable configurations — the FP32
// task-specific student and the INT8 multi-task student — serve real
// requests concurrently from one published deployment.
//
// Steady-state serving is allocation-free: each worker owns a bump arena
// (tensor/arena.h) sized from the snapshot's own measurement
// (DeploymentSnapshot::plan_workspace) and binds it around the hot region —
// a singleton group serves through a borrowed view of the request's tensor,
// larger groups stack into an arena-backed tensor, and every inference
// intermediate lands in the arena. The scope ends before
// decode (Detections escape into results, so they must stay heap-backed)
// and the arena resets once per (config, model) group. test_runtime asserts
// both halves of the contract: zero heap allocations in the scoped region
// after warmup, and detections element-wise identical to the serial path.
//
// Determinism contract: inference is cache-free and batch-composition-
// invariant, so every request's detections are element-wise identical to a
// serial `Framework::detect_batch` over the same weights, whatever the
// scheduling or which snapshot version served it — the property test_runtime
// proves for snapshots before and after each publish.
//
// Admission: try_submit is the K = 1 case of try_submit_group. Both run one
// routine — validate every view against one snapshot acquisition, stamp ids
// and a saturating deadline, push all K views in one all-or-nothing queue
// operation — so a single request and a group view enter the same queue
// through the same code. Completion is one routine too: every request —
// completed, faulted or expired, single or group view — ends in resolve(),
// which records and counts it once and settles its one completion target:
// its own promise (detections unchanged, never through detect::fuse_views)
// or its gather slot, whose last depositor fuses or fails the group.
//
// Fault tolerance contract: one bad request never takes the server down.
// Malformed requests (wrong image shape, a NaN or inf pixel in any view,
// (task, config) not servable from the current snapshot) throw at
// admission; an inference fault inside a worker is delivered on exactly the
// affected group's futures while the worker keeps draining; requests whose
// deadline passed before a worker picked them are shed with
// DeadlineExceeded; a throw from cross-view fusion fails only that group
// request's future. Every admitted request's future is always fulfilled —
// with a value or an exception, never abandoned.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/itask.h"
#include "core/snapshot.h"
#include "detect/fusion.h"
#include "runtime/clock.h"
#include "runtime/metrics.h"
#include "runtime/queue.h"
#include "runtime/trace.h"

namespace itask::runtime {

/// Delivered on a request's future when its deadline passed before any
/// worker picked it into a micro-batch (bounded-latency load shedding).
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// Delivered on a group request's future when at least one of its K views
/// failed (inference fault or deadline shed). The group fails as a unit —
/// fused output over a partial view set would silently change the evidence
/// denominator — while sibling requests in the same micro-batch are
/// unaffected (the PR 3 per-group isolation contract, view-granular here).
class GroupViewFault : public std::runtime_error {
 public:
  GroupViewFault(const std::string& what, int64_t first_failed_view,
                 int64_t failed_views)
      : std::runtime_error(what),
        first_failed_view_(first_failed_view),
        failed_views_(failed_views) {}

  /// Lowest view index that failed (deterministic, not arrival order).
  int64_t first_failed_view() const { return first_failed_view_; }
  /// How many of the K views failed.
  int64_t failed_views() const { return failed_views_; }

 private:
  int64_t first_failed_view_ = -1;
  int64_t failed_views_ = 0;
};

/// Identifies one (config, model) group of a micro-batch — one forward, and
/// therefore the unit of fault isolation. An FP32 group holds one task; an
/// INT8 group may hold several, so the site names no task. Deterministic
/// given the submission order (first_request_id), so tests and benches can
/// target exact groups.
struct FaultSite {
  int64_t worker = -1;
  int64_t first_request_id = -1;
  int64_t group_size = 0;
  core::ConfigKind config = core::ConfigKind::kQuantizedMultiTask;
  int64_t snapshot_version = 0;
};

struct RuntimeOptions {
  int64_t workers = 2;
  /// Micro-batch closes at this many requests…
  int64_t max_batch = 8;
  /// …or this long (µs) after its first request was picked up.
  int64_t max_wait_us = 2000;
  /// Admission bound: try_submit rejects beyond this many queued requests.
  int64_t queue_capacity = 64;
  /// Default per-request deadline (µs from admission); 0 disables. A request
  /// whose deadline has passed when a worker forms its micro-batch is shed
  /// with DeadlineExceeded instead of consuming inference time — bounded
  /// degradation under overload. try_submit can override per request.
  int64_t deadline_us = 0;
  /// Fault-injection hook, consulted once per (config, model) group just
  /// before its inference; anything it throws becomes that group's fault
  /// (delivered on every member future, other groups unaffected). Lets tests
  /// exercise the degradation paths deterministically.
  std::function<void(const FaultSite&)> fault_injector;
  /// Time source for request accounting — admission/pick/infer timestamps,
  /// stage histograms, deadlines. Defaults to steady_clock_us; tests inject
  /// FakeClock::fn() for exact stage durations. Micro-batch max_wait
  /// blocking in the queue stays on the real clock regardless.
  ClockFn clock_us;
  /// Cross-view fusion parameters for try_submit_group gathers, checked at
  /// construction (detect::check_fusion_options). Fusion runs on the worker
  /// resolving a group's last view, after that worker's arena epilogue —
  /// outside the ArenaScope and off the allocation-metered hot path.
  detect::FusionOptions fusion;
};

/// Everything a client learns about one completed request. The stage spans
/// partition the request's life (queue + batch-formation + infer == total,
/// up to the non-negative clamp) and mirror what the stage histograms saw.
struct InferenceResult {
  int64_t request_id = -1;
  std::vector<detect::Detection> detections;
  int64_t batch_size = 0;   // size of the micro-batch this request rode in
  int64_t worker = -1;      // which worker served it
  int64_t snapshot_version = 0;  // deployment snapshot that served it
  double queue_us = 0.0;    // admission → picked into a batch
  double batch_formation_us = 0.0;  // picked → its group's forward began
  double infer_us = 0.0;    // model forward + decode for its group
  double total_us = 0.0;    // admission → result ready
  StageTimeline timeline;   // the raw clock readings behind the spans
};

/// Why a submission was declined; kNone means it was admitted. Shared by
/// every admission surface — InferenceServer::try_submit / try_submit_group
/// and the fleet twins — so callers branch on one vocabulary.
/// kTenantQuota is produced only by the fleet's per-tenant admission quota;
/// from a fleet, kQueueFull means every candidate replica was full.
enum class RejectReason { kNone, kQueueFull, kShuttingDown, kTenantQuota };

const char* reject_reason_name(RejectReason reason);

/// The typed outcome of try_submit: either the future for the admitted
/// request, or an explicit reject reason the caller can branch on (shed
/// load on kQueueFull, stop submitting on kShuttingDown) — replacing the
/// old bare optional that conflated the two.
struct SubmitResult {
  std::optional<std::future<InferenceResult>> future;
  RejectReason reject = RejectReason::kNone;

  bool admitted() const { return future.has_value(); }
  explicit operator bool() const { return admitted(); }
};

/// What a group request's future resolves to: the fused detections plus the
/// per-view results (index = view index) the gather assembled them from.
/// `fused` is a pure function of the per-view detection multisets
/// (detect::fuse_views), so it is element-wise identical whether the views
/// were served by one server, a fleet shard at any geometry, or fused
/// serially outside the runtime.
struct GroupInferenceResult {
  int64_t group_id = -1;
  std::vector<detect::Detection> fused;
  std::vector<InferenceResult> views;  // one per view, in view order
  int64_t view_count = 0;
  double fuse_us = 0.0;   // gather fusion span (outside the arena scope)
  double total_us = 0.0;  // group admission → fused result ready
};

/// The typed outcome of try_submit_group, mirroring SubmitResult.
struct GroupSubmitResult {
  std::optional<std::future<GroupInferenceResult>> future;
  RejectReason reject = RejectReason::kNone;

  bool admitted() const { return future.has_value(); }
  explicit operator bool() const { return admitted(); }
};

/// A serving engine over published core::DeploymentSnapshot bundles. The
/// server owns a shared reference to every snapshot it may still serve
/// from, so the publishing Framework is free to keep mutating (define_task,
/// prepare_*, publish) while the server runs — snapshots are immutable.
class InferenceServer {
 public:
  InferenceServer(std::shared_ptr<const core::DeploymentSnapshot> snapshot,
                  RuntimeOptions options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Swaps in a newer published snapshot without pausing serving: requests
  /// admitted before the swap finish on whichever snapshot their worker
  /// acquired; micro-batches formed after it serve the new one. The
  /// snapshot's version must strictly increase over the current one and its
  /// expected input shape must match (the admission contract already handed
  /// to clients cannot change mid-flight). Increments snapshots_published;
  /// tasks_onboarded grows by the number of newly servable tasks.
  void install_snapshot(
      std::shared_ptr<const core::DeploymentSnapshot> snapshot);

  /// The snapshot new micro-batches will be served from right now.
  std::shared_ptr<const core::DeploymentSnapshot> current_snapshot() const;

  /// Admission-controlled submit of one image [C, H, W]. The result carries
  /// either the future or the explicit reject reason (queue full /
  /// shutting down) — the caller sheds load. Malformed requests fail fast
  /// here instead of inside a worker: an image whose shape differs from the
  /// snapshot's expected [C, H, W], a non-finite pixel, a negative
  /// `deadline_us`, or a (task, config) the *current* snapshot cannot serve,
  /// throws std::invalid_argument (counted as requests_invalid) —
  /// publish-and-install a snapshot containing the task first. `deadline_us` overrides RuntimeOptions::deadline_us for this
  /// request (0 = none); a deadline past the clock's range saturates to
  /// "never expires".
  SubmitResult try_submit(Tensor image, kg::TaskId task,
                          core::ConfigKind config,
                          std::optional<int64_t> deadline_us = std::nullopt);

  /// Scatter/gather submit of ONE logical request carrying K views of the
  /// same scene. Admission is all-or-nothing (one atomic multi-push: the
  /// whole group is queued or the whole group is rejected); each view then
  /// rides the ordinary batcher/arena hot path as an independent work item —
  /// workers are group-oblivious — and the worker completing the LAST view
  /// fuses the per-view detections (RuntimeOptions::fusion, outside its
  /// ArenaScope) and resolves the single future. Validation is per view
  /// (shape + servable, as try_submit), and zero views or more views than
  /// `queue_capacity` throw too (each counted once as requests_invalid);
  /// `deadline_us` applies to every view, and any view failing (fault or
  /// deadline shed) fails the group with GroupViewFault while sibling
  /// requests are unaffected.
  GroupSubmitResult try_submit_group(
      std::vector<Tensor> views, kg::TaskId task, core::ConfigKind config,
      std::optional<int64_t> deadline_us = std::nullopt);

  /// Graceful shutdown: stops admission, drains every queued request
  /// (all outstanding futures are fulfilled), joins the workers. Idempotent;
  /// also run by the destructor.
  void shutdown();

  MetricsRegistry& metrics() { return metrics_; }
  /// Read-only view for scrapes (PeriodicReporter, exposition, benches).
  const MetricsRegistry& metrics() const { return metrics_; }
  const RuntimeOptions& options() const { return options_; }

 private:
  /// Gather state shared by the K views of one group request. Workers
  /// deposit each view's outcome under `mu`; whoever decrements `remaining`
  /// to zero owns the finish (fuse or fail) — the mutex's release/acquire
  /// chain makes every sibling's deposit visible to the finisher.
  struct GroupGather {
    int64_t group_id = -1;
    std::mutex mu;
    std::vector<InferenceResult> views;  // indexed by view_index
    int64_t remaining = 0;
    int64_t failed_views = 0;
    int64_t first_failed_view = -1;  // lowest failed view index
    std::string first_error;         // what() of that view's failure
    std::promise<GroupInferenceResult> promise;
  };

  /// A group view's completion target: its index in the gather.
  struct GroupSlot {
    std::shared_ptr<GroupGather> gather;
    int64_t view_index = 0;
  };

  struct Pending {
    int64_t id = -1;
    Tensor image;                        // [C, H, W]
    kg::TaskId task;
    core::ConfigKind config = core::ConfigKind::kQuantizedMultiTask;
    /// Where resolve() settles: a single request's own promise or a group
    /// view's gather slot. Empty by default, so the queue's slot reset
    /// allocates nothing.
    std::variant<std::monostate, std::promise<InferenceResult>, GroupSlot>
        completion;
    int64_t admitted_us = 0;  // clock_us() at admission
    int64_t deadline_us = 0;  // absolute clock_us() deadline; 0 = none
    /// Snapshot version admission validated this request against. The
    /// serving worker may acquire a newer snapshot (install_snapshot raced
    /// the queue); that skew is safe — task tables only grow — but no longer
    /// silent: served-version != admitted_version counts snapshot_version_
    /// skew, the fleet's staged-rollout observability signal.
    int64_t admitted_version = 0;
  };

  /// How a request ends: completed with `result` (detections, batch size
  /// and worker set; resolve fills the rest), or failed/expired with `error`.
  enum class Terminal { kCompleted, kFailed, kExpired };
  struct Outcome {
    Terminal terminal = Terminal::kCompleted;
    InferenceResult result;
    std::exception_ptr error;
  };

  /// The one admission routine behind try_submit (K = 1) and
  /// try_submit_group: `members` arrive with their image and completion
  /// target set; everything else — validation, ids, admission time,
  /// deadline — is stamped here before the single all-or-nothing push.
  /// Throws std::invalid_argument for a malformed request; otherwise returns
  /// kNone (admitted) or the counted reject reason.
  RejectReason admit(std::span<Pending> members, kg::TaskId task,
                     core::ConfigKind config,
                     std::optional<int64_t> deadline_us, const char* surface);
  void worker_loop(int64_t worker_index);
  /// The one terminal routine every admitted request ends in: records the
  /// stage timeline, counts the terminal kind once, fills a completed
  /// result's span fields from `t`, then settles the completion target — a
  /// single request's promise, or the group view's gather slot, where the
  /// last depositor runs finish_group. Never called with an ArenaScope
  /// bound: workers resolve after the micro-batch group's arena epilogue.
  void resolve(Pending& pending, const StageTimeline& t, Outcome outcome);
  /// Fuses a fully deposited group, or fails it (a failed view or a throw
  /// from fusion).
  void finish_group(GroupGather& gather);

  RuntimeOptions options_;
  ClockFn clock_;
  BoundedQueue<Pending> queue_;
  MetricsRegistry metrics_;
  StageRecorder stages_;
  // Per-request counters (admission, and resolve's terminal kinds) resolved
  // once at construction: no string-keyed lookup under the registry lock
  // per increment, and a scrape before the first request sees each at 0.
  Counter& requests_submitted_;
  Counter& requests_invalid_;
  Counter& rejected_queue_full_;
  Counter& rejected_shutdown_;
  Counter& snapshots_published_;
  Counter& tasks_onboarded_;
  Counter& snapshot_version_skew_;
  Counter& groups_submitted_;
  Counter& groups_completed_;
  Counter& groups_failed_;
  Counter& requests_completed_;
  Counter& requests_failed_;
  Counter& requests_expired_;
  Histogram& group_fuse_h_;
  std::atomic<int64_t> next_id_{0};
  std::atomic<int64_t> next_group_id_{0};
  // The current snapshot, guarded by a mutex rather than an atomic
  // shared_ptr: acquisition is once per micro-batch (not per request), so
  // the lock is uncontended and trivially TSan-clean.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const core::DeploymentSnapshot> snapshot_;
  // Peak per-worker arena bytes any installed snapshot needs (plan_workspace
  // at construction and each install; monotone — never shrinks while old
  // batches may still be in flight). Workers re-read it each micro-batch and
  // grow their arena outside the measured region.
  std::atomic<int64_t> workspace_bytes_{0};
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace itask::runtime
