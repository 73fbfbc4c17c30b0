// F7 — sharded serving fleet: per-tenant quota fairness and the staged
// snapshot rollout with an injected mid-rollout shard failure + resume, read
// back through the merged Prometheus scrape (per-shard registries + fleet
// registry). Load and latency under open-loop traffic are servebench's
// (`occluded_groups` runs the fleet); this binary shows what servebench and
// the tests do not print as a table, and exits nonzero when one of its
// invariants fails.
#include <cstdint>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/exposition.h"
#include "runtime/fleet.h"
#include "tensor/format.h"

int main() {
  using namespace itask;
  bench::print_header(
      "F7", "sharded fleet: quota fairness and staged rollout");

  bool ok = true;
  const auto check = [&ok](bool holds, const char* invariant) {
    if (!holds) {
      std::printf("  FAIL: %s\n", invariant);
      ok = false;
    }
  };

  core::Framework fw(bench::experiment_options(/*seed=*/43));
  std::printf("[setup] training deployment (quantized configuration, 4 "
              "missions)...\n");
  fw.pretrain_teacher();
  std::vector<core::TaskHandle> tasks;
  for (const int64_t library_task : {1, 2, 3, 4}) {
    tasks.push_back(fw.define_task(data::task_by_id(library_task)));
  }
  fw.prepare_quantized();
  const auto snapshot = fw.publish();
  const data::Dataset scenes =
      bench::make_eval_set(fw.options(), /*scenes=*/32, /*seed=*/2025);

  // Per-tenant admission quotas: tenant 0 floods (8 attempts per round),
  // tenants 1 and 2 trickle (1 each). With quotas off the flood takes the
  // whole admission share; with tenant_quota 3 per 10-attempt window the
  // flood is capped and light tenants land every attempt.
  std::printf("\nper-tenant quota fairness (shards 2): 10 rounds of "
              "[t0 x8, t1, t2] per window\n\n");
  std::printf("quota  tenant  attempts  admitted  quota-rejected\n");
  for (const int64_t quota : {int64_t{0}, int64_t{3}}) {
    runtime::FleetOptions fo;
    fo.shards = 2;
    fo.tenant_quota = quota;
    fo.quota_window = 10;
    fo.shard_options.workers = 2;
    fo.shard_options.max_batch = 4;
    fo.shard_options.max_wait_us = 300;
    fo.shard_options.queue_capacity = 256;  // isolate quota from backpressure
    runtime::InferenceFleet fleet(snapshot, fo);
    std::vector<int64_t> attempts(3, 0), admitted(3, 0), rejected(3, 0);
    std::vector<std::future<runtime::InferenceResult>> futures;
    for (int64_t round = 0; round < 10; ++round) {
      std::vector<int64_t> round_tenants(8, 0);
      round_tenants.push_back(1);
      round_tenants.push_back(2);
      for (const int64_t tenant : round_tenants) {
        ++attempts[static_cast<size_t>(tenant)];
        auto r = fleet.try_submit(
            scenes.scene(round % scenes.size()).image,
            tasks[static_cast<size_t>(round % 4)].id,
            core::ConfigKind::kQuantizedMultiTask, tenant);
        if (r.admitted()) {
          ++admitted[static_cast<size_t>(tenant)];
          futures.push_back(std::move(*r.future));
        } else if (r.reject == runtime::RejectReason::kTenantQuota) {
          ++rejected[static_cast<size_t>(tenant)];
        }
      }
    }
    for (auto& f : futures) f.get();
    fleet.shutdown();
    for (int64_t tenant = 0; tenant < 3; ++tenant) {
      std::printf("%5s  %6d  %8d  %8d  %14d\n",
                  quota == 0 ? "off" : fmt::i64(quota).c_str(),
                  static_cast<int>(tenant),
                  static_cast<int>(attempts[static_cast<size_t>(tenant)]),
                  static_cast<int>(admitted[static_cast<size_t>(tenant)]),
                  static_cast<int>(rejected[static_cast<size_t>(tenant)]));
    }
    if (quota == 3) {
      check(attempts[0] == 80 && admitted[0] == 30,
            "quota 3: tenant 0 admitted 30 of 80");
      check(attempts[1] == 10 && admitted[1] == 10 && attempts[2] == 10 &&
                admitted[2] == 10,
            "quota 3: tenants 1 and 2 admitted 10 of 10");
    }
  }

  // Staged rollout with an injected mid-rollout shard failure: onboarding a
  // fifth mission publishes v2; the rollout stops at the failing shard
  // (earlier shards keep v2, later shards keep serving v1 — the version-skew
  // tolerance contract makes the mixed state safe), and a retry of the same
  // snapshot resumes at the failed shard.
  std::printf("\nstaged rollout (shards 3): injected install failure on "
              "shard 1, then resume\n\n");
  std::string prometheus;
  {
    runtime::FleetOptions fo;
    fo.shards = 3;
    fo.shard_options.workers = 1;
    int64_t injected = 0;
    fo.rollout_hook = [&injected](int64_t shard, int64_t /*version*/) {
      if (shard == 1 && injected++ == 0) {
        throw std::runtime_error("F7 injected shard install failure");
      }
    };
    runtime::InferenceFleet fleet(snapshot, fo);
    const core::TaskHandle onboarded = fw.define_task(data::task_by_id(5));
    const auto next = fw.publish();
    const auto print_versions = [&fleet] {
      std::printf("  shard versions:");
      for (const int64_t v : fleet.shard_versions()) {
        std::printf(" v%s", fmt::i64(v).c_str());
      }
      std::printf("\n");
    };
    const int64_t v1 = snapshot->version();
    const int64_t v2 = next->version();
    const runtime::RolloutResult first = fleet.install_snapshot(next);
    std::printf("  pass 1: installed %s shard(s), failed at shard %s (%s)\n",
                fmt::i64(first.installed).c_str(),
                fmt::i64(first.failed_shard).c_str(), first.error.c_str());
    print_versions();
    check(first.failed_shard == 1 &&
              fleet.shard_versions() == std::vector<int64_t>{v2, v1, v1},
          "pass 1 stops at shard 1 with versions v2 v1 v1");
    // Mid-rollout, mixed versions keep serving: old missions everywhere,
    // the onboarded one wherever its replica already took v2.
    auto old_mission = fleet.try_submit(
        scenes.scene(0).image, tasks[0].id,
        core::ConfigKind::kQuantizedMultiTask);
    old_mission.future->get();
    std::printf("  mid-rollout: mission 1 served on mixed versions, "
                "onboarded mission routable on %s\n",
                fleet.router().replicas(onboarded.id)[0] <= first.installed - 1
                    ? "its updated replica"
                    : "no replica yet (admission refuses it)");
    const runtime::RolloutResult second = fleet.install_snapshot(next);
    std::printf("  pass 2 (retry): skipped %s current shard(s), installed "
                "%s, complete=%s\n",
                fmt::i64(second.already_current).c_str(),
                fmt::i64(second.installed).c_str(),
                second.complete() ? "yes" : "no");
    print_versions();
    check(second.complete() &&
              fleet.shard_versions() == std::vector<int64_t>{v2, v2, v2},
          "pass 2 completes with every shard on v2");
    auto now_served = fleet.try_submit(
        scenes.scene(0).image, onboarded.id,
        core::ConfigKind::kQuantizedMultiTask);
    const int64_t served_version = now_served.future->get().snapshot_version;
    std::printf("  onboarded mission [%s] serves on snapshot v%s\n",
                onboarded.spec.name.c_str(), fmt::i64(served_version).c_str());
    check(served_version == v2, "the onboarded mission serves stamped v2");
    fleet.shutdown();

    // One scrape for the whole fleet: the merged registry (fleet_ counters
    // + summed shard counters + bucket-merged histograms) through the
    // existing Prometheus exposition. Each fleet counter must appear in it
    // with its value.
    prometheus = runtime::to_prometheus(
        runtime::ExpositionData{fleet.merged_metrics(), {}});
    bool scraped = true;
    for (const auto& [name, value] : fleet.metrics().snapshot().counters) {
      scraped = scraped && prometheus.find("itask_" + name + " " +
                                           fmt::i64(value) + "\n") !=
                               std::string::npos;
    }
    check(scraped, "the merged scrape carries every fleet_ counter");
  }

  std::printf("\nmerged prometheus exposition sample (rollout fleet, "
              "_bucket series elided)\n\n");
  {
    size_t pos = 0;
    while (pos < prometheus.size()) {
      size_t nl = prometheus.find('\n', pos);
      if (nl == std::string::npos) nl = prometheus.size();
      const std::string line = prometheus.substr(pos, nl - pos);
      if (line.find("_bucket{") == std::string::npos) {
        std::printf("  %s\n", line.c_str());
      }
      pos = nl + 1;
    }
  }
  std::printf("\nF7 invariants (quota, rollout, scrape): %s\n",
              ok ? "PASS" : "FAIL");

  bench::print_footer_note(
      "shape: quota table: with quotas off the flooding tenant takes every "
      "admission slot it asks for; with tenant_quota 3 per 10-attempt "
      "window its admissions cap at 3 per window (30 of 80) while the light "
      "tenants' attempts all land (quota-rejected counts the flood's excess "
      "only). Rollout: pass 1 reports the injected failure with shard 0 "
      "already on v2 and shards 1-2 still on v1 — serving never pauses, "
      "detections stay element-wise identical on both versions "
      "(test_runtime asserts this) — and pass 2 skips the current shard and "
      "completes. The invariants line must PASS; the binary exits nonzero "
      "otherwise. Fleet load and latency are servebench's occluded_groups "
      "workload.");
  return ok ? 0 : 1;
}
