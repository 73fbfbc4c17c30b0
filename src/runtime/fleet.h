// The sharded serving fleet (DESIGN.md §2 `runtime/fleet`, bench F7): N
// InferenceServer shards behind a deterministic task-affinity router — the
// "millions of users" scale-out tier over the single-server substrate.
//
//   clients ──try_submit──▶ InferenceFleet ──route──▶ shard k (InferenceServer)
//                  │   (tenant quota + fairness │
//                  │    window, then rendezvous │
//                  │    placement & failover)   ▼
//                  └──── std::future<InferenceResult> ◀── shard worker ─┘
//
// Placement: FleetRouter ranks every shard by kg::task_route_hash(task,
// shard) — rendezvous (highest-random-weight) hashing keyed on the stable
// TaskId. A task's top `replication` shards are its replica set; requests
// spread across replicas round-robin by a per-task submission sequence and
// fail over to the next replica when one's queue is full. Placement is a
// pure function of (task, shard count, replication): no traffic state, so
// any two fleets with the same geometry route identically, and every shard
// sees a stable task subset (warm per-task affinity) instead of random
// spray.
//
// Admission fairness: per-tenant quotas over a rolling attempt window. Each
// tenant may be admitted at most `tenant_quota` times per `quota_window`
// try_submit attempts fleet-wide; the per-tenant fairness counters reset
// when the window rolls. A heavy tenant saturates its share and gets
// kTenantQuota while light tenants keep landing — bounded-share admission
// without per-request completion tracking.
//
// Staged rollout: install_snapshot walks the shards in index order, one
// install at a time, after asserting the version-skew tolerance contract
// (DeploymentSnapshot::first_missing_task — task tables only ever grow).
// Mid-rollout the fleet intentionally serves MIXED versions: safe, because
// a task known to the older version produces element-wise identical
// detections on every version (prepare_* replaces models rather than
// mutating them), and new-only tasks simply aren't routable until their
// replicas update. A shard whose install throws stops the rollout — that is
// the rollback path: snapshot versions are monotone, so "rollback" means
// earlier shards keep the new version, the remaining shards keep serving
// the old one, the mixed state stays correct by the same contract, and a
// retry of the same snapshot resumes at the failed shard (already-current
// shards are skipped). Nothing is ever downgraded and serving never pauses.
//
// Observability: the fleet keeps its own MetricsRegistry (routing, quota,
// rollout counters, all `fleet_`-prefixed) next to each shard's registry;
// merged_metrics() folds all of them into one RegistrySnapshot via
// merge_snapshots, which feeds the existing Prometheus/JSON exposition
// unchanged — one scrape for the whole fleet, or per-shard scrapes for
// drill-down.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/server.h"

namespace itask::runtime {

/// Deterministic task→shard placement: rendezvous hashing over the stable
/// kg::TaskId. Stateless and cheap — the fleet consults it per submission,
/// tests enumerate it directly.
class FleetRouter {
 public:
  /// `replication` is clamped into [1, shards].
  FleetRouter(int64_t shards, int64_t replication);

  int64_t shards() const { return shards_; }
  int64_t replication() const { return replication_; }

  /// The task's replica set: all shards ranked by task_route_hash(task,
  /// shard) descending, truncated to `replication`. replicas(t)[0] is the
  /// task's primary. Deterministic; distinct shards.
  std::vector<int64_t> replicas(kg::TaskId task) const;

  /// The shard a request should try first: the task's replica slot
  /// `sequence % replication`. Spreading by a per-task submission sequence
  /// keeps replica load even while staying a pure function of (task,
  /// sequence).
  int64_t route(kg::TaskId task, int64_t sequence) const;

 private:
  int64_t shards_;
  int64_t replication_;
};

struct FleetOptions {
  int64_t shards = 2;
  /// Replica set size per task (clamped to `shards`): >1 trades strict
  /// single-shard affinity for failover headroom and per-task throughput.
  int64_t replication = 1;
  /// Per-tenant admissions allowed per fairness window; 0 disables quotas.
  int64_t tenant_quota = 0;
  /// Fairness window length, counted in try_submit attempts fleet-wide.
  int64_t quota_window = 64;
  /// Options every shard's InferenceServer is built with (workers per
  /// shard, batching, queue depth, deadlines, …).
  RuntimeOptions shard_options;
  /// Rollout fault hook, consulted just before each shard's install during
  /// install_snapshot (staged, shard index order). Anything it throws
  /// becomes that shard's install failure — the deterministic way tests and
  /// bench_f7_fleet exercise the mid-rollout rollback path.
  std::function<void(int64_t shard, int64_t version)> rollout_hook;
};

/// try_submit outcome: the admitted request's future plus which shard took
/// it, or the explicit reject reason. The fleet shares the server's
/// RejectReason vocabulary (one enum, one reject_reason_name): kTenantQuota
/// is the fleet-level reason a single server cannot produce, and kQueueFull
/// here means every replica of the task was full (failover exhausted).
struct FleetSubmitResult {
  std::optional<std::future<InferenceResult>> future;
  RejectReason reject = RejectReason::kNone;
  int64_t shard = -1;  // the shard that admitted (−1 on reject)

  bool admitted() const { return future.has_value(); }
  explicit operator bool() const { return admitted(); }
};

/// try_submit_group outcome, mirroring FleetSubmitResult: the whole group
/// lands on ONE shard (so its views share that shard's batcher and the
/// gather never crosses registries), or is rejected as a unit.
struct FleetGroupSubmitResult {
  std::optional<std::future<GroupInferenceResult>> future;
  RejectReason reject = RejectReason::kNone;
  int64_t shard = -1;  // the shard that admitted (−1 on reject)

  bool admitted() const { return future.has_value(); }
  explicit operator bool() const { return admitted(); }
};

/// Outcome of one staged install_snapshot pass over the shards.
struct RolloutResult {
  int64_t version = 0;          // snapshot version being rolled out
  int64_t installed = 0;        // shards newly installed by this pass
  int64_t already_current = 0;  // shards skipped (version already ≥)
  int64_t failed_shard = -1;    // first shard whose install threw, or −1
  std::string error;            // that failure's what(), empty on success

  /// Every shard now serves `version` (or newer).
  bool complete() const { return failed_shard < 0; }
};

class InferenceFleet {
 public:
  /// Builds `options.shards` InferenceServer shards, every one serving
  /// `snapshot` from the start.
  InferenceFleet(std::shared_ptr<const core::DeploymentSnapshot> snapshot,
                 FleetOptions options);
  ~InferenceFleet();

  InferenceFleet(const InferenceFleet&) = delete;
  InferenceFleet& operator=(const InferenceFleet&) = delete;

  /// Routes and submits one request. Order of checks: shutdown, tenant
  /// quota, then the task's replica shards in rotation order with failover
  /// past full replicas. Throws std::invalid_argument (like the underlying
  /// server) when NO replica's current snapshot can serve (task, config) —
  /// mid-rollout, a task only the new version knows is admitted as soon as
  /// one of its replicas has been updated — and rethrows the shard's
  /// std::invalid_argument for a malformed request (bad shape, non-finite
  /// pixel, negative deadline). Both count in `fleet_requests_invalid`.
  FleetSubmitResult try_submit(Tensor image, kg::TaskId task,
                               core::ConfigKind config, int64_t tenant = 0,
                               std::optional<int64_t> deadline_us =
                                   std::nullopt);

  /// Scatter/gather twin of InferenceServer::try_submit_group. Same
  /// admission order as try_submit (shutdown, tenant quota — one logical
  /// request counts as ONE quota admission however many views it carries —
  /// then replica rotation with failover past full shards); the whole group
  /// is placed on one shard, all-or-nothing, and the returned future
  /// resolves with that shard's fused result. Throws std::invalid_argument
  /// when no replica can serve (task, config), exactly like try_submit, and
  /// for an empty `views` before any routing; every throw counts in
  /// `fleet_requests_invalid`.
  FleetGroupSubmitResult try_submit_group(
      std::vector<Tensor> views, kg::TaskId task, core::ConfigKind config,
      int64_t tenant = 0, std::optional<int64_t> deadline_us = std::nullopt);

  /// Staged rollout (see the file comment): asserts the version-skew
  /// tolerance contract, then installs shard-by-shard in index order,
  /// stopping at the first failure. Never throws for a shard install
  /// failure — that is an expected operational outcome reported in the
  /// result; a retry with the same snapshot resumes where it stopped.
  /// Contract violations (null snapshot, a task of any shard's current
  /// snapshot missing from the new one) still throw std::invalid_argument.
  RolloutResult install_snapshot(
      std::shared_ptr<const core::DeploymentSnapshot> snapshot);

  int64_t shard_count() const {
    return static_cast<int64_t>(shards_.size());
  }
  InferenceServer& shard(int64_t index);
  const FleetRouter& router() const { return router_; }
  /// Each shard's currently served snapshot version, in shard order —
  /// mixed values mid-rollout are the expected picture.
  std::vector<int64_t> shard_versions() const;

  /// Fleet-level registry (routing/quota/rollout counters only; per-request
  /// serving metrics live in each shard's registry).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// One fleet-wide scrape: the fleet registry and every shard registry
  /// merged (counters summed, histograms bucket-merged) — feed it to
  /// to_prometheus/to_json exactly like a single server's snapshot.
  RegistrySnapshot merged_metrics() const;

  /// The tenant's fairness-counter value in the current window (admissions
  /// so far); resets when the window rolls. Observability for tests/benches.
  int64_t tenant_window_admissions(int64_t tenant) const;

  /// Stops admission on the fleet, then drains and joins every shard.
  /// Idempotent; also run by the destructor.
  void shutdown();

  const FleetOptions& options() const { return options_; }

 private:
  /// The one admission walk behind try_submit and try_submit_group, in
  /// order: shutdown, tenant quota window, then the task's replica set in
  /// rotation order with failover. `attempt(server, last_candidate)` submits
  /// the request to one shard and returns that server's submit result.
  template <typename FleetResult, typename Attempt>
  FleetResult admit(kg::TaskId task, core::ConfigKind config, int64_t tenant,
                    const char* surface, Attempt&& attempt);

  FleetOptions options_;
  FleetRouter router_;
  MetricsRegistry metrics_;
  // Admission-path counters, resolved once (same rationale as the server's).
  Counter& submitted_;
  Counter& admitted_;
  Counter& quota_rejected_;
  Counter& queue_full_rejected_;
  Counter& shutdown_rejected_;
  Counter& failovers_;
  Counter& invalid_;
  Counter& window_resets_;
  Counter& rollouts_started_;
  Counter& rollouts_completed_;
  Counter& rollouts_failed_;
  Counter& shard_installs_;
  std::vector<std::unique_ptr<InferenceServer>> shards_;
  // Admission state: per-task routing sequences and the fairness window.
  // One fleet-wide mutex — admission is validation + a queue push, the
  // serving hot path (shard workers) never touches it.
  mutable std::mutex mu_;
  std::map<kg::TaskId, int64_t> route_seq_;
  std::map<int64_t, int64_t> window_admissions_;  // tenant → this window
  int64_t window_attempts_ = 0;
  bool stopped_ = false;
  // Serializes concurrent rollouts (admission keeps flowing meanwhile).
  std::mutex rollout_mu_;
};

}  // namespace itask::runtime
