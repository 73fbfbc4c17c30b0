// serve_bench — open-loop serving benchmark for the iTaskSense runtime.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process = one run of one workload. It sets the deployment up several
// times (train → define 4 missions → prepare both configurations → publish →
// start the server or fleet → warm up) and reports the median set-up time,
// precomputes serial references, then drives the runtime through its public
// submit API from ONE generator thread on a seeded open-loop schedule. Every
// request is timed from its scheduled send time to its result being ready
// (StageTimeline clock), so a stall also charges the requests queued behind
// it. Every served result is compared element-wise with the serial
// reference; any mismatch makes the run incorrect and the exit code nonzero.
//
// Every run measures the nominal phase and bisects a fixed rate ladder for
// capacity, printing exact p50/p99 with their sample counts. --trace 0 then
// reports the gated end-to-end metrics: serving CPU time per request, task
// F1, peak RSS while serving and set-up CPU time. --trace 1 replays half the
// nominal schedule with the profiling hooks on, times each layer's public
// entry points from outside (core snapshot calls, detect/kg pipeline
// pieces, fusion) and reports the per-layer metrics, wall-clock latency and
// capacity among them.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Thread budget: the generator (main) thread plus 2 serving workers in total,
// within a 4-core machine.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/itask.h"
#include "data/renderer.h"
#include "data/tasks.h"
#include "detect/fusion.h"
#include "detect/metrics.h"
#include "runtime/fleet.h"
#include "tensor/arena.h"
#include "tensor/profile.h"

// Every heap allocation bumps the allocating thread's allocdebug counter, so
// the server's `hot_path_allocs` metric counts real allocations inside its
// arena-scoped region (zero in steady state) instead of reading 0 always.
namespace {
void* counted_alloc(std::size_t size) {
  itask::allocdebug::note_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  itask::allocdebug::note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace itask;
using core::ConfigKind;
using Detections = std::vector<detect::Detection>;

// ------------------------------------------------------------- constants --

// Set-up budget. The repo's full budget (960/192/256 scenes, 30 epochs)
// takes ~25-35 s per set-up; this one takes ~4.5 s, still gives every
// configuration a nonzero pooled F1, and is repeated kSetupReps times.
constexpr int64_t kCorpus = 128;
constexpr int64_t kTaskCorpus = 48;
constexpr int64_t kMultitaskCorpus = 128;
constexpr int64_t kEpochs = 20;
constexpr int64_t kSetupReps = 3;

// Evaluation pool: fixed scenes (the seed drives traffic, not the pool), so
// task_f1 is a property of the trained model and identical on every run.
constexpr int64_t kScenes = 24;
constexpr uint64_t kSceneSeed = 2025;
constexpr std::array<int64_t, 4> kLibraryTasks{1, 2, 3, 4};
constexpr int64_t kViews = 3;            // occluded_groups: views per group
constexpr float kSeverity = 0.5f;        // occluded_groups: occlusion severity
constexpr uint64_t kViewSeed = 7000;     // occluded_groups: per-scene view seeds

// Capacity ladder: rung k offers nominal * kLadderRatio^k. The nominal phase
// is rung 0; the search bisects the rungs above (or below, if rung 0 fails).
constexpr double kLadderRatio = 1.08;
constexpr int64_t kLadderLow = -10;   // ~0.46x nominal
constexpr int64_t kLadderHigh = 24;   // ~6.3x nominal
constexpr int64_t kMaxProbes = 5;     // enough to bisect either side of 0

// A phase whose generator sent later than this share of the latency limit
// at p99 did not offer the schedule it claims: it is marked invalid and run
// again, up to kNominalAttempts times. (Lag is already charged to every
// request's latency; this only catches the host freezing the generator.)
constexpr double kMaxLagShare = 1.0;
constexpr int kNominalAttempts = 2;

// p99 is taken per window of this many scheduled requests (>= 10 beyond
// the percentile), and the median over windows is reported.
constexpr size_t kWindowSamples = 1000;

// The traced run's layer sum must explain the untraced infer span within
// this relative tolerance.
constexpr double kReconcileTolerance = 0.25;

struct Workload {
  const char* name;
  bool fleet;          // 2-shard fleet, 1 worker each (else 1 server, 2 workers)
  bool groups;         // every request is a K-view group
  bool bursty;         // 4x/0.25x rate for 25%/75% of each 50 ms period
  double fp32_share;   // share of requests on the task-specific FP32 config
  double zipf_s;       // task popularity over the 4 missions (0 = uniform)
  double nominal_rps;  // requests (groups) per second at rung 0
  double limit_us;     // p99 latency limit
};

// The latency limit is one frame at 30 fps: a detection that arrives after
// the next frame is useless to a real-time mission. It sits above most of
// the scheduling stalls of a shared virtualised host (5-40 ms), so capacity
// is set by the backlog the server cannot drain, not by a stall.
constexpr double kFrameBudgetUs = 1e6 / 30.0;

// Nominal rates are a third to a half of the capacity measured on a 4-core
// x86 VM (~9.5k/s steady_int8, ~8k/s bursty_dual, ~4.3k groups/s
// occluded_groups; every run's capacity and probe lines re-measure it),
// high enough that a 1000-request p99 window spans well under a second.
// bursty_dual shares steady_int8's mean rate, so the two differ only in
// arrival shape and configuration mix.
constexpr std::array<Workload, 3> kWorkloads{{
    {"steady_int8", false, false, false, 0.0, 1.1, 3000.0, kFrameBudgetUs},
    {"bursty_dual", false, false, true, 0.5, 1.1, 3000.0, kFrameBudgetUs},
    {"occluded_groups", true, true, false, 1.0, 0.0, 2000.0, kFrameBudgetUs},
}};

constexpr int64_t kWorkersTotal = 2;
constexpr int64_t kMaxBatch = 8;
constexpr int64_t kMaxWaitUs = 250;
constexpr int64_t kQueueCapacity = 256;
constexpr int64_t kBurstPeriodUs = 50'000;
constexpr double kBurstDuty = 0.25;
constexpr double kBurstFactor = 4.0;

// ----------------------------------------------------------------- utils --

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact quantile of a sample by linear interpolation between order
/// statistics (position q * (n - 1)); NaN for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The kernel's peak resident-set mark for this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

/// Hands the heap's free pages back to the kernel, then resets VmHWM to the
/// current resident set, so the next peak_rss_mb() covers only what runs
/// after this call. False where the kernel refuses the reset.
bool reset_peak_rss() {
  malloc_trim(0);
  const int fd = open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = write(fd, "5", 1) == 1;
  close(fd);
  return ok;
}

/// splitmix64: derives independent per-phase seeds from the run seed.
uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  const auto x = a.data();
  const auto y = b.data();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

bool same_detections(const Detections& a, const Detections& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const detect::Detection& p = a[i];
    const detect::Detection& q = b[i];
    if (p.cell != q.cell || p.predicted_class != q.predicted_class ||
        p.objectness != q.objectness || p.task_score != q.task_score ||
        p.confidence != q.confidence || p.box.cx != q.box.cx ||
        p.box.cy != q.box.cy || p.box.w != q.box.w || p.box.h != q.box.h ||
        !same_tensor(p.attr_probs, q.attr_probs) ||
        !same_tensor(p.class_probs, q.class_probs)) {
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------- setup --

core::FrameworkOptions framework_options() {
  core::FrameworkOptions o;
  o.corpus_size = kCorpus;
  o.task_corpus_size = kTaskCorpus;
  o.multitask_corpus_size = kMultitaskCorpus;
  o.teacher_training.epochs = kEpochs;
  o.distillation.epochs = kEpochs;
  o.multitask_distillation.epochs = kEpochs;
  return o;
}

runtime::RuntimeOptions runtime_options(const Workload& w) {
  runtime::RuntimeOptions ro;
  ro.workers = w.fleet ? 1 : kWorkersTotal;
  ro.max_batch = kMaxBatch;
  ro.max_wait_us = kMaxWaitUs;
  // No per-request deadline: overload shows as latency and queue-full
  // rejections, not as shedding that a millisecond host stall would trigger.
  ro.queue_capacity = kQueueCapacity;
  ro.fusion.min_views = 2;  // keep what two views agree on (as in F8)
  return ro;
}

/// The served system: one server, or a 2-shard fleet for group traffic.
struct Target {
  std::unique_ptr<runtime::InferenceServer> server;
  std::unique_ptr<runtime::InferenceFleet> fleet;

  std::vector<runtime::InferenceServer*> shards() {
    std::vector<runtime::InferenceServer*> out;
    if (server) out.push_back(server.get());
    if (fleet) {
      for (int64_t s = 0; s < fleet->shard_count(); ++s)
        out.push_back(&fleet->shard(s));
    }
    return out;
  }
  int64_t counter(const char* name) {
    int64_t total = 0;
    for (runtime::InferenceServer* s : shards())
      total += s->metrics().counter(name).value();
    return total;
  }
  int64_t fleet_counter(const char* name) {
    return fleet ? fleet->metrics().counter(name).value() : 0;
  }
  void shutdown() {
    if (server) server->shutdown();
    if (fleet) fleet->shutdown();
  }
};

Target start_target(const Workload& w,
                    std::shared_ptr<const core::DeploymentSnapshot> snap) {
  Target t;
  if (w.fleet) {
    runtime::FleetOptions fo;
    fo.shards = kWorkersTotal;
    fo.replication = kWorkersTotal;  // every mission on both shards
    fo.shard_options = runtime_options(w);
    t.fleet = std::make_unique<runtime::InferenceFleet>(std::move(snap), fo);
  } else {
    t.server = std::make_unique<runtime::InferenceServer>(std::move(snap),
                                                          runtime_options(w));
  }
  return t;
}

/// Fixed evaluation pool plus everything the gate compares against.
struct Pool {
  data::Dataset scenes;
  std::vector<std::vector<Tensor>> views;  // [scene][view] occluded views
  std::vector<std::vector<std::vector<detect::GroundTruthObject>>> truth;
  // Serial references, from DeploymentSnapshot::infer_batch (+ fuse_views).
  std::map<std::tuple<int, int, int>, Detections> single;  // (cfg,task,scene)
  std::map<std::pair<int, int>, std::vector<Detections>> per_view;
  std::map<std::pair<int, int>, Detections> fused;  // (task, scene)
};

/// The pool's scenes and occluded views depend only on fixed seeds; ground
/// truth and references are filled in once the deployment exists.
Pool make_pool(const core::FrameworkOptions& options) {
  Pool pool;
  Rng rng(kSceneSeed);
  pool.scenes = data::Dataset::generate(
      data::SceneGenerator(options.generator), kScenes, rng);
  data::OcclusionOptions occ;
  occ.severity = kSeverity;
  for (int64_t i = 0; i < kScenes; ++i) {
    std::vector<Tensor> views;
    for (int64_t v = 0; v < kViews; ++v) {
      data::Scene view(pool.scenes.scene(i));
      Rng view_rng(kViewSeed + 100u * static_cast<uint64_t>(i) +
                   static_cast<uint64_t>(v));
      data::apply_occlusion(view, occ, view_rng);
      views.push_back(std::move(view.image));
    }
    pool.views.push_back(std::move(views));
  }
  return pool;
}

Tensor as_batch(const Tensor& image) {
  const Shape& s = image.shape();
  Tensor b({1, s[0], s[1], s[2]});
  b.set_index(0, image);
  return b;
}

void build_references(Pool& pool, const core::DeploymentSnapshot& snap,
                      const std::vector<core::TaskHandle>& tasks,
                      const Workload& w,
                      const detect::FusionOptions& fusion) {
  for (int ti = 0; ti < static_cast<int>(tasks.size()); ++ti) {
    for (int si = 0; si < kScenes; ++si) {
      if (w.groups) {
        std::vector<Detections> per_view;
        for (const Tensor& v : pool.views[static_cast<size_t>(si)]) {
          per_view.push_back(snap.infer_batch(as_batch(v), tasks[ti].id,
                                              ConfigKind::kTaskSpecific)[0]);
        }
        pool.fused[{ti, si}] = detect::fuse_views(per_view, fusion);
        pool.per_view[{ti, si}] = std::move(per_view);
        continue;
      }
      for (const ConfigKind c :
           {ConfigKind::kQuantizedMultiTask, ConfigKind::kTaskSpecific}) {
        if (c == ConfigKind::kTaskSpecific && w.fp32_share <= 0.0) continue;
        pool.single[{static_cast<int>(c), ti, si}] = snap.infer_batch(
            as_batch(pool.scenes.scene(si).image), tasks[ti].id, c)[0];
      }
    }
  }
}

struct SetupTimes {
  double total_s = 0, pretrain_s = 0, distill_s = 0, quantize_s = 0,
         publish_s = 0;
};

// ------------------------------------------------------------- schedule --

struct Arrival {
  int64_t at_us = 0;
  int scene = 0;
  int task = 0;
  ConfigKind config = ConfigKind::kQuantizedMultiTask;
};

/// Open-loop schedule for `seconds` at mean `rate` (requests/s). Poisson
/// arrivals; bursty workloads modulate the rate by thinning, with the
/// on/off levels scaled so the mean stays `rate`.
std::vector<Arrival> make_schedule(const Workload& w, double rate,
                                   double seconds, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t r = 0; r < kLibraryTasks.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  const double mean_scale =
      kBurstDuty * kBurstFactor + (1.0 - kBurstDuty) / kBurstFactor;
  const double hi = w.bursty ? rate * kBurstFactor / mean_scale : rate;
  const double lo = w.bursty ? rate / kBurstFactor / mean_scale : rate;
  const double horizon_us = seconds * 1e6;
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - unit(rng)) / hi * 1e6;
    if (t >= horizon_us) break;
    if (w.bursty) {
      const double phase =
          std::fmod(t, static_cast<double>(kBurstPeriodUs)) / kBurstPeriodUs;
      const double r = phase < kBurstDuty ? hi : lo;
      if (unit(rng) * hi >= r) continue;
    }
    Arrival a;
    a.at_us = static_cast<int64_t>(t);
    a.scene = static_cast<int>(rng() % kScenes);
    const double u = unit(rng);
    a.task = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                              cdf.begin());
    a.task = std::min(a.task, static_cast<int>(kLibraryTasks.size()) - 1);
    a.config = unit(rng) < w.fp32_share ? ConfigKind::kTaskSpecific
                                        : ConfigKind::kQuantizedMultiTask;
    out.push_back(a);
  }
  return out;
}

// ----------------------------------------------------------------- phase --

/// One served work item (a request, or one view of a group).
struct Item {
  ConfigKind config = ConfigKind::kQuantizedMultiTask;
  int64_t shard = 0;
  int64_t worker = 0;
  int64_t infer_start_us = 0;
  double queue_us = 0, formation_us = 0, infer_us = 0;
  double batch_size = 0;
};

struct PhaseStats {
  double rate = 0.0;
  int64_t sent = 0, ok = 0, rejected = 0, failed = 0, mismatched = 0,
          within_limit = 0;
  std::vector<double> latency_us;  // completed requests only
  std::vector<int64_t> window_of;  // per latency sample: its p99 window
  std::vector<double> lag_us;      // every sent request
  std::vector<double> view_spread_us;
  std::vector<Item> items;
  // Latencies of the requests due in the last tenth of the phase: their
  // median exceeds the limit only when the backlog grew over the phase.
  std::vector<double> tail_latency_us;
  // First served detections per distinct (config, task, scene): task_f1.
  std::map<std::tuple<int, int, int>, Detections> served;
  // Counter deltas over the phase.
  int64_t queue_full = 0, requests_expired = 0, hot_allocs = 0,
          arena_overflows = 0, failovers = 0;
  double shard_load_ratio = 1.0;
  // CPU time the serving threads spent per completed request: process CPU
  // minus this (generator) thread's, over the phase.
  double cpu_us_per_request = 0.0;

  int64_t errors() const { return rejected + failed + mismatched; }
  double p(double q) const { return quantile(latency_us, q); }
  /// p99 of each window of ~kWindowSamples consecutive scheduled requests,
  /// then the median over windows: a host stall of a few milliseconds
  /// inflates the p99 of the window it lands in, not the reported value.
  double windowed_p99(double q = 0.5) const {
    std::map<int64_t, std::vector<double>> windows;
    for (size_t i = 0; i < latency_us.size(); ++i)
      windows[window_of[i]].push_back(latency_us[i]);
    std::vector<double> p99s;
    for (auto& [index, v] : windows) {
      if (v.size() >= kWindowSamples / 2) p99s.push_back(quantile(v, 0.99));
    }
    return p99s.empty() ? p(0.99) : quantile(p99s, q);
  }
  bool passes(double limit_us) const {
    return errors() == 0 && !latency_us.empty() &&
           windowed_p99() <= limit_us &&
           quantile(tail_latency_us, 0.5) <= limit_us;
  }
};

Item item_of(const runtime::InferenceResult& r, int64_t shard,
             ConfigKind config) {
  Item it;
  it.config = config;
  it.shard = shard;
  it.worker = r.worker;
  it.infer_start_us = r.timeline.infer_start_us;
  it.queue_us = r.queue_us;
  it.formation_us = r.batch_formation_us;
  it.infer_us = r.infer_us;
  it.batch_size = static_cast<double>(r.batch_size);
  return it;
}

/// Sends `schedule` open-loop from this thread, then collects and checks
/// every result. Nothing is read back while sending.
PhaseStats run_phase(const Workload& w, Target& target, const Pool& pool,
                     const std::vector<core::TaskHandle>& tasks,
                     const std::vector<Arrival>& schedule, double rate) {
  PhaseStats st;
  st.rate = rate;
  const std::vector<runtime::InferenceServer*> shards = target.shards();
  std::vector<int64_t> admitted_before;
  for (runtime::InferenceServer* s : shards) {
    admitted_before.push_back(
        s->metrics().counter("requests_submitted").value());
  }
  const int64_t full0 = target.counter("rejected_queue_full");
  const int64_t exp0 = target.counter("requests_expired");
  const int64_t allocs0 = target.counter("hot_path_allocs");
  const int64_t over0 = target.counter("arena_overflow_allocs");
  const int64_t fo0 = target.fleet_counter("fleet_failovers");
  const int64_t process_cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  const int64_t generator_cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);

  struct Sent {
    int64_t due_us = 0;
    int64_t shard = 0;
    std::optional<std::future<runtime::InferenceResult>> single;
    std::optional<std::future<runtime::GroupInferenceResult>> group;
  };
  std::vector<Sent> sent(schedule.size());
  st.lag_us.reserve(schedule.size());
  const int64_t base_us = runtime::steady_clock_us() + 2000;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    const int64_t due = base_us + a.at_us;
    // Spin rather than sleep: on a virtualised host an idle vCPU can take
    // milliseconds to be rescheduled, which would make the generator, not
    // the server, set the tail (measured: lag p99 4-8 ms sleeping, ~50 us
    // spinning). The generator owns one core for the phase.
    while (runtime::steady_clock_us() < due) {
    }
    sent[i].due_us = due;
    const kg::TaskId id = tasks[static_cast<size_t>(a.task)].id;
    if (w.groups) {
      auto r = target.fleet->try_submit_group(
          pool.views[static_cast<size_t>(a.scene)], id, a.config);
      st.lag_us.push_back(
          static_cast<double>(runtime::steady_clock_us() - due));
      if (r.admitted()) {
        sent[i].group = std::move(r.future);
        sent[i].shard = r.shard;
      }
    } else {
      auto r = target.server->try_submit(pool.scenes.scene(a.scene).image, id,
                                         a.config);
      st.lag_us.push_back(
          static_cast<double>(runtime::steady_clock_us() - due));
      if (r.admitted()) sent[i].single = std::move(r.future);
    }
  }

  st.sent = static_cast<int64_t>(schedule.size());
  const size_t tail_start = schedule.size() - schedule.size() / 10;
  const double window_us = kWindowSamples / rate * 1e6;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    Sent& s = sent[i];
    if (!s.single && !s.group) {
      ++st.rejected;
      continue;
    }
    const auto key =
        std::make_tuple(static_cast<int>(a.config), a.task, a.scene);
    try {
      int64_t done_us = 0;
      bool match = true;
      Detections out;
      if (s.single) {
        runtime::InferenceResult r = s.single->get();
        done_us = r.timeline.infer_end_us;
        match = same_detections(r.detections, pool.single.at(key));
        st.items.push_back(item_of(r, 0, a.config));
        out = std::move(r.detections);
      } else {
        runtime::GroupInferenceResult r = s.group->get();
        done_us = r.views.front().timeline.admitted_us +
                  static_cast<int64_t>(std::llround(r.total_us));
        const auto& ref_views = pool.per_view.at({a.task, a.scene});
        match = r.views.size() == ref_views.size() &&
                same_detections(r.fused, pool.fused.at({a.task, a.scene}));
        int64_t first_end = INT64_MAX, last_end = 0;
        for (size_t v = 0; v < r.views.size(); ++v) {
          match = match && same_detections(r.views[v].detections,
                                           ref_views[v]);
          st.items.push_back(item_of(r.views[v], s.shard, a.config));
          first_end = std::min(first_end, r.views[v].timeline.infer_end_us);
          last_end = std::max(last_end, r.views[v].timeline.infer_end_us);
        }
        st.view_spread_us.push_back(static_cast<double>(last_end - first_end));
        out = std::move(r.fused);
      }
      if (!match) {
        ++st.mismatched;
        continue;
      }
      ++st.ok;
      st.served.try_emplace(key, std::move(out));
      const double lat = static_cast<double>(done_us - s.due_us);
      st.latency_us.push_back(lat);
      st.window_of.push_back(
          static_cast<int64_t>(static_cast<double>(a.at_us) / window_us));
      if (i >= tail_start) st.tail_latency_us.push_back(lat);
      if (lat <= w.limit_us) ++st.within_limit;
    } catch (const std::exception&) {
      ++st.failed;  // inference fault or GroupViewFault
    }
  }

  const int64_t serving_cpu_ns =
      (cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0) -
      (cpu_ns(CLOCK_THREAD_CPUTIME_ID) - generator_cpu0);
  st.cpu_us_per_request = st.ok > 0 ? static_cast<double>(serving_cpu_ns) /
                                          1e3 / static_cast<double>(st.ok)
                                    : 0.0;
  st.queue_full = target.counter("rejected_queue_full") - full0;
  st.requests_expired = target.counter("requests_expired") - exp0;
  st.hot_allocs = target.counter("hot_path_allocs") - allocs0;
  st.arena_overflows = target.counter("arena_overflow_allocs") - over0;
  st.failovers = target.fleet_counter("fleet_failovers") - fo0;
  int64_t lo = INT64_MAX, hi = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    const int64_t n =
        shards[s]->metrics().counter("requests_submitted").value() -
        admitted_before[s];
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  st.shard_load_ratio =
      lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
  return st;
}

/// Warm-up: every (task, config) the workload uses, in small waited bursts,
/// so arenas, thread-local pack workspaces and caches are filled before
/// anything is timed.
void warm_up(const Workload& w, Target& target, const Pool& pool,
             const std::vector<core::TaskHandle>& tasks) {
  std::vector<ConfigKind> configs;
  if (w.fp32_share < 1.0) configs.push_back(ConfigKind::kQuantizedMultiTask);
  if (w.fp32_share > 0.0) configs.push_back(ConfigKind::kTaskSpecific);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::future<runtime::InferenceResult>> singles;
    std::vector<std::future<runtime::GroupInferenceResult>> groups;
    for (size_t t = 0; t < tasks.size(); ++t) {
      for (const ConfigKind c : configs) {
        const int64_t scene = (round * 7 + static_cast<int64_t>(t)) % kScenes;
        if (w.groups) {
          auto r = target.fleet->try_submit_group(
              pool.views[static_cast<size_t>(scene)], tasks[t].id, c);
          if (r.admitted()) groups.push_back(std::move(*r.future));
        } else {
          for (int k = 0; k < 4; ++k) {
            auto r = target.server->try_submit(pool.scenes.scene(scene).image,
                                               tasks[t].id, c);
            if (r.admitted()) singles.push_back(std::move(*r.future));
          }
        }
      }
    }
    for (auto& f : singles) f.get();
    for (auto& f : groups) f.get();
  }
}

struct Deployment {
  std::unique_ptr<core::Framework> framework;
  std::vector<core::TaskHandle> tasks;
  std::shared_ptr<const core::DeploymentSnapshot> snapshot;
  Target target;
  SetupTimes times;
};

/// One full set-up, from an empty deployment to a warm server, in process
/// CPU seconds: set-up is compute bound, and wall time on a shared host also
/// counts the time the host gave to other tenants (measured: up to +30%).
Deployment set_up(const Workload& w, const Pool& pool) {
  Deployment d;
  const auto cpu_s = [] {
    return static_cast<double>(cpu_ns(CLOCK_PROCESS_CPUTIME_ID)) / 1e9;
  };
  const double t0 = cpu_s();
  d.framework = std::make_unique<core::Framework>(framework_options());
  d.framework->pretrain_teacher();
  const double t1 = cpu_s();
  for (const int64_t id : kLibraryTasks)
    d.tasks.push_back(d.framework->define_task(data::task_by_id(id)));
  for (const core::TaskHandle& t : d.tasks)
    d.framework->prepare_task_specific(t);
  const double t2 = cpu_s();
  d.framework->prepare_quantized();
  const double t3 = cpu_s();
  d.snapshot = d.framework->publish();
  const double t4 = cpu_s();
  d.target = start_target(w, d.snapshot);
  warm_up(w, d.target, pool, d.tasks);
  const double t5 = cpu_s();
  d.times = {t5 - t0, t1 - t0, t2 - t1, t3 - t2, t4 - t3};
  return d;
}

// --------------------------------------------------------------- metrics --

/// Pooled F1 over every distinct (config, task, scene) served, against the
/// clean scenes' ground truth at the framework's eval IoU.
double task_f1(const PhaseStats& st, const Pool& pool, float eval_iou) {
  std::vector<Detections> dets;
  std::vector<std::vector<detect::GroundTruthObject>> truth;
  for (const auto& [key, d] : st.served) {
    dets.push_back(d);
    truth.push_back(pool.truth[static_cast<size_t>(std::get<1>(key))]
                              [static_cast<size_t>(std::get<2>(key))]);
  }
  return detect::evaluate(dets, truth, eval_iou).f1;
}

struct JsonOut {
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  std::string render(bool correct, int64_t attempted, int64_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      char num[64];
      if (std::isfinite(value)) {
        std::snprintf(num, sizeof(num), "%.17g", value);
      } else {
        std::snprintf(num, sizeof(num), "null");
      }
      s += (i ? ", \"" : "\"") + name + "\": {\"value\": " + num +
           ", \"unit\": \"" + unit + "\"}";
    }
    return s + "}}";
  }
};

void print_phase(const char* label, const PhaseStats& st, double limit_us) {
  std::printf(
      "%-8s rate %8.1f/s  sent %6lld  p50 %7.1f us (n=%zu)  p99 window "
      "median %7.1f us (n=%zu/window)  p99 whole %7.1f us  errors %lld (rej "
      "%lld, fail %lld, mismatch %lld)  lag p99 %.0f us (n=%zu)  "
      "tail p50 %.0f us  window p99 q1 %.0f q3 %.0f us  serving cpu %.1f "
      "us/request  %s\n",
      label, st.rate, static_cast<long long>(st.sent), st.p(0.5),
      st.latency_us.size(), st.windowed_p99(), kWindowSamples, st.p(0.99),
      static_cast<long long>(st.errors()),
      static_cast<long long>(st.rejected), static_cast<long long>(st.failed), static_cast<long long>(st.mismatched),
      quantile(st.lag_us, 0.99), st.lag_us.size(),
      quantile(st.tail_latency_us, 0.5),
      st.windowed_p99(0.25), st.windowed_p99(0.75), st.cpu_us_per_request,
      st.passes(limit_us) ? "pass" : "FAIL");
}

// ------------------------------------------------------------ layer timing --

/// Median wall time (us) of `fn` over at least `min_iters` calls and about
/// `budget_s` seconds.
template <typename Fn>
double time_us(Fn&& fn, int min_iters, double budget_s) {
  std::vector<double> samples;
  const double stop = now_s() + budget_s;
  while (static_cast<int>(samples.size()) < min_iters || now_s() < stop) {
    const int64_t t0 = now_ns();
    fn();
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (samples.size() >= 400) break;
  }
  return quantile(samples, 0.5);
}

Tensor stacked(const Pool& pool, int64_t b) {
  const Shape& s = pool.scenes.scene(0).image.shape();
  Tensor out({b, s[0], s[1], s[2]});
  for (int64_t i = 0; i < b; ++i)
    out.set_index(i, pool.scenes.scene(i % kScenes).image);
  return out;
}

constexpr std::array<ConfigKind, 2> kConfigs{ConfigKind::kQuantizedMultiTask,
                                             ConfigKind::kTaskSpecific};
const char* config_tag(ConfigKind c) {
  return c == ConfigKind::kTaskSpecific ? "fp32" : "int8";
}
size_t config_slot(ConfigKind c) {
  return c == ConfigKind::kTaskSpecific ? 1 : 0;
}

/// One served forward: the items of one (config, task) group, which share
/// a (shard, worker, infer start) and one infer span.
struct Call {
  size_t config = 0;
  int64_t size = 0;
  double infer_us = 0;
};

std::vector<Call> served_calls(const PhaseStats& st) {
  std::map<std::tuple<int64_t, int64_t, int64_t>, Call> calls;
  for (const Item& it : st.items) {
    Call& c = calls[{it.shard, it.worker, it.infer_start_us}];
    c.config = config_slot(it.config);
    c.size = std::min<int64_t>(kMaxBatch, c.size + 1);
    c.infer_us = it.infer_us;
  }
  std::vector<Call> out;
  for (const auto& [key, c] : calls) out.push_back(c);
  return out;
}

/// Mean time a serving worker sat idle between two served calls over a
/// phase of `seconds`.
int64_t idle_gap_us(const std::vector<Call>& calls, double seconds) {
  if (calls.empty()) return 0;
  double busy_us = 0.0;
  for (const Call& c : calls) busy_us += c.infer_us;
  const double idle_us =
      static_cast<double>(kWorkersTotal) * seconds * 1e6 - busy_us;
  return static_cast<int64_t>(std::max(0.0, idle_us) /
                              static_cast<double>(calls.size()));
}

struct CoreTimes {
  // [config slot][batch size 1..kMaxBatch], median us per call.
  std::array<std::array<double, kMaxBatch + 1>, 2> raw_us{};
  std::array<std::array<double, kMaxBatch + 1>, 2> decode_us{};
};

/// Times DeploymentSnapshot::infer_raw (inside an arena scope, as a serving
/// worker runs it) and decode_batch (outside it) for both configurations at
/// every batch size, as the median of kRounds calls each. Each round times
/// every (config, batch size) once, so a slow stretch of the host lands on
/// all of them alike. Each call follows an idle gap of `gap_us`, the
/// measured mean idle time of a serving worker between calls: back-to-back
/// calls run with warm caches and would time faster than served ones. Calls
/// rotate over the missions, as served traffic does: each mission has its
/// own FP32 student, so the working set spans all of them.
CoreTimes time_core(const core::DeploymentSnapshot& snap, const Pool& pool,
                    const std::vector<core::TaskHandle>& tasks,
                    int64_t gap_us) {
  constexpr int64_t kRounds = 64;
  constexpr size_t kSizes = static_cast<size_t>(kMaxBatch) + 1;
  Arena arena(snap.plan_workspace(kMaxBatch));
  std::array<Tensor, kSizes> images;
  // decode_batch inputs, [config slot][batch size][mission].
  std::array<std::array<std::vector<vit::VitOutput>, kSizes>, 2> raws;
  for (size_t b = 1; b < kSizes; ++b) {
    images[b] = stacked(pool, static_cast<int64_t>(b));
    for (const ConfigKind c : kConfigs) {
      for (const core::TaskHandle& t : tasks)
        raws[config_slot(c)][b].push_back(snap.infer_raw(images[b], t.id, c));
    }
  }
  const auto timed = [gap_us](const auto& fn) {
    std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
    const int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) / 1e3;
  };
  std::array<std::array<std::vector<double>, kSizes>, 2> raw_us, decode_us;
  for (int64_t round = 0; round < kRounds; ++round) {
    for (const ConfigKind c : kConfigs) {
      const size_t s = config_slot(c);
      for (size_t b = 1; b < kSizes; ++b) {
        const size_t m = (static_cast<size_t>(round) + b) % tasks.size();
        const kg::TaskId id = tasks[m].id;
        raw_us[s][b].push_back(timed([&] {
          {
            const ArenaScope scope(arena);
            const vit::VitOutput out = snap.infer_raw(images[b], id, c);
            (void)out;
          }
          arena.reset();
        }));
        decode_us[s][b].push_back(
            timed([&] { (void)snap.decode_batch(raws[s][b][m], id, c); }));
      }
    }
  }
  CoreTimes ct;
  for (size_t s = 0; s < 2; ++s) {
    for (size_t b = 1; b < kSizes; ++b) {
      ct.raw_us[s][b] = quantile(raw_us[s][b], 0.5);
      ct.decode_us[s][b] = quantile(decode_us[s][b], 0.5);
    }
  }
  return ct;
}

/// Profile-hook attribution of infer_raw per configuration: for each
/// section, ns per call and share of the infer_raw wall time it covers.
struct SectionShare {
  std::array<double, static_cast<int>(profile::Section::kCount)> ns_per_call{};
  std::array<double, static_cast<int>(profile::Section::kCount)> share{};
  double outside = 0.0;
};

SectionShare profile_core(const core::DeploymentSnapshot& snap,
                          const Pool& pool, const core::TaskHandle& task,
                          ConfigKind c) {
  SectionShare out;
  Arena arena(snap.plan_workspace(kMaxBatch));
  const Tensor b1 = stacked(pool, 1);
  const Tensor b8 = stacked(pool, kMaxBatch);
  profile::reset();
  profile::set_enabled(true);
  int64_t total_ns = 0;
  for (int rep = 0; rep < 40; ++rep) {
    for (const Tensor* images : {&b1, &b8}) {
      const int64_t t0 = now_ns();
      {
        const ArenaScope scope(arena);
        const vit::VitOutput raw = snap.infer_raw(*images, task.id, c);
        (void)raw;
      }
      total_ns += now_ns() - t0;
      arena.reset();
    }
  }
  profile::set_enabled(false);
  double covered = 0.0;
  for (const profile::SectionStats& s : profile::snapshot()) {
    const auto i = static_cast<size_t>(s.section);
    out.ns_per_call[i] =
        static_cast<double>(s.total_ns) / static_cast<double>(s.calls);
    out.share[i] =
        static_cast<double>(s.total_ns) / static_cast<double>(total_ns);
    covered += out.share[i];
  }
  profile::reset();
  out.outside = 1.0 - covered;
  return out;
}

struct PipelineTimes {
  double decode_us = 0, match_us = 0, nms_us = 0;
  double candidates_per_image = 0, relevant_ratio = 0, nms_keep_ratio = 0;
};

/// The quantized path's decode → KG match → NMS, one public call at a time,
/// per image over every (task, scene) of the pool.
PipelineTimes time_pipeline(const core::DeploymentSnapshot& snap,
                            const Pool& pool,
                            const std::vector<core::TaskHandle>& tasks,
                            const core::FrameworkOptions& options) {
  std::vector<double> decode, match, nms;
  int64_t candidates = 0, relevant = 0, kept_after = 0, images = 0;
  for (int64_t si = 0; si < kScenes; ++si) {
    const Tensor image = as_batch(pool.scenes.scene(si).image);
    const vit::VitOutput raw =
        snap.infer_raw(image, tasks[0].id, ConfigKind::kQuantizedMultiTask);
    std::vector<std::vector<detect::Detection>> cand;
    decode.push_back(time_us(
        [&] { cand = detect::decode(raw, options.decoder); }, 5, 0.0));
    for (const core::TaskHandle& t : tasks) {
      std::vector<detect::Detection> kept;
      match.push_back(time_us(
          [&] {
            kept.clear();
            const kg::TaskMatcher matcher(t.compiled, options.matcher);
            for (const detect::Detection& d : cand[0]) {
              if (!matcher.relevant(d.attr_probs, d.class_probs)) continue;
              detect::Detection k = d;
              k.task_score = matcher.score(d.attr_probs, d.class_probs);
              k.confidence = d.objectness *
                             matcher.confidence(d.attr_probs, d.class_probs);
              kept.push_back(std::move(k));
            }
          },
          5, 0.0));
      std::vector<detect::Detection> after;
      nms.push_back(time_us(
          [&] { after = detect::nms(kept, options.nms_iou); }, 5, 0.0));
      candidates += static_cast<int64_t>(cand[0].size());
      relevant += static_cast<int64_t>(kept.size());
      kept_after += static_cast<int64_t>(after.size());
      ++images;
    }
  }
  PipelineTimes pt;
  pt.decode_us = quantile(decode, 0.5);
  pt.match_us = quantile(match, 0.5);
  pt.nms_us = quantile(nms, 0.5);
  pt.candidates_per_image =
      static_cast<double>(candidates) / static_cast<double>(images);
  pt.relevant_ratio = candidates > 0 ? static_cast<double>(relevant) /
                                           static_cast<double>(candidates)
                                     : 0.0;
  pt.nms_keep_ratio = relevant > 0 ? static_cast<double>(kept_after) /
                                         static_cast<double>(relevant)
                                   : 0.0;
  return pt;
}

/// Median detect::fuse_views time over the occluded pool's per-view results.
double time_fusion(const core::DeploymentSnapshot& snap, const Pool& pool,
                   const std::vector<core::TaskHandle>& tasks,
                   const detect::FusionOptions& fusion) {
  std::vector<double> samples;
  for (const core::TaskHandle& t : tasks) {
    for (int64_t si = 0; si < kScenes; ++si) {
      std::vector<Detections> per_view;
      for (const Tensor& v : pool.views[static_cast<size_t>(si)]) {
        per_view.push_back(snap.infer_batch(as_batch(v), t.id,
                                            ConfigKind::kTaskSpecific)[0]);
      }
      samples.push_back(
          time_us([&] { (void)detect::fuse_views(per_view, fusion); }, 5, 0));
    }
  }
  return quantile(samples, 0.5);
}

/// Explained share of the served infer span. Served calls are bucketed by
/// (config, group size); each bucket adds its call count times the
/// isolated infer_raw + decode_batch time at that size and config to the
/// explained side, and its call count times its median served span to the
/// measured side. The median keeps a host stall inside a few spans from
/// reading as unexplained layer time.
double reconcile(const std::vector<Call>& calls, const CoreTimes& ct) {
  std::map<std::pair<size_t, int64_t>, std::vector<double>> spans;
  for (const Call& c : calls) spans[{c.config, c.size}].push_back(c.infer_us);
  double predicted = 0.0, measured = 0.0;
  for (const auto& [key, v] : spans) {
    const auto [config, size] = key;
    const double n = static_cast<double>(v.size());
    predicted += n * (ct.raw_us[config][static_cast<size_t>(size)] +
                      ct.decode_us[config][static_cast<size_t>(size)]);
    measured += n * quantile(v, 0.5);
  }
  return measured > 0 ? predicted / measured : 0.0;
}

// ------------------------------------------------------------------ main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "serve_bench: %s\nusage: serve_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

template <typename Get>
std::vector<double> collect(const std::vector<Item>& items, Get get) {
  std::vector<double> v;
  v.reserve(items.size());
  for (const Item& it : items) v.push_back(get(it));
  return v;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) return usage("unknown workload");
  const Workload& w = *found;
  const core::FrameworkOptions options = framework_options();

  Pool pool = make_pool(options);
  std::vector<SetupTimes> setups;
  Deployment dep;
  for (int64_t rep = 0; rep < kSetupReps; ++rep) {
    if (dep.framework) {
      dep.target.shutdown();
      dep = Deployment{};  // release the previous set-up before the next
    }
    dep = set_up(w, pool);
    setups.push_back(dep.times);
    std::printf("setup %lld: %.3f cpu s (pretrain %.3f, distill %.3f, "
                "quantize %.3f, publish %.4f, serve+warm %.3f)\n",
                static_cast<long long>(rep), dep.times.total_s,
                dep.times.pretrain_s, dep.times.distill_s,
                dep.times.quantize_s, dep.times.publish_s,
                dep.times.total_s - dep.times.pretrain_s -
                    dep.times.distill_s - dep.times.quantize_s -
                    dep.times.publish_s);
    std::fflush(stdout);
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return quantile(v, 0.5);
  };
  for (const core::TaskHandle& t : dep.tasks)
    pool.truth.push_back(core::Framework::ground_truth(pool.scenes, t.spec));
  const runtime::RuntimeOptions ro = runtime_options(w);
  build_references(pool, *dep.snapshot, dep.tasks, w, ro.fusion);

  // Training sets the process's peak; serving's own peak is measured from
  // here on.
  const double setup_peak_mb = peak_rss_mb();
  if (!reset_peak_rss()) {
    std::printf("VmHWM could not be reset: peak_rss_mb includes set-up\n");
  }

  std::printf("workload %s: %s, %s arrivals, fp32 share %.2f, zipf %.2f over "
              "%zu missions, nominal %.0f/s, limit %.0f us, seed %llu, "
              "threads 1 generator + %lld workers\n",
              w.name, w.fleet ? "2-shard fleet x 1 worker" : "1 server x 2 workers",
              w.bursty ? "bursty" : "poisson", w.fp32_share, w.zipf_s,
              kLibraryTasks.size(), w.nominal_rps, w.limit_us,
              static_cast<unsigned long long>(args.seed),
              static_cast<long long>(kWorkersTotal));

  // Nominal phase. A phase whose generator lagged past the limit at p99 (the
  // host froze the process) is marked invalid and run again, up to
  // kNominalAttempts times. If every attempt lagged, the run goes on with
  // its wall-clock figures marked invalid (harness.valid = 0); the CPU,
  // accuracy, memory and set-up metrics do not depend on the schedule.
  const double nominal_s = args.seconds / 2.0;
  const std::vector<Arrival> nominal_schedule =
      make_schedule(w, w.nominal_rps, nominal_s, mix_seed(args.seed, 0));
  PhaseStats nominal;
  int64_t mismatches = 0;
  bool valid = false;
  for (int attempt = 1; attempt <= kNominalAttempts && !valid; ++attempt) {
    nominal = run_phase(w, dep.target, pool, dep.tasks, nominal_schedule,
                        w.nominal_rps);
    print_phase("nominal", nominal, w.limit_us);
    mismatches += nominal.mismatched;
    const double lag_p99 = quantile(nominal.lag_us, 0.99);
    valid = lag_p99 <= kMaxLagShare * w.limit_us;
    if (!valid) {
      std::printf("INVALID phase: generator lag p99 %.0f us exceeds %.0f us, "
                  "the schedule was not offered as generated\n",
                  lag_p99, kMaxLagShare * w.limit_us);
    }
  }
  const double serving_peak_mb = peak_rss_mb();
  std::printf("peak RSS %.1f MB serving the nominal phase (set-up and "
              "references %.1f MB)\n",
              serving_peak_mb, setup_peak_mb);
  int64_t attempted = nominal.sent;
  int64_t failed = nominal.errors();

  // Capacity: bisect the ladder around rung 0 (the nominal phase).
  int64_t lo = kLadderLow - 1, hi = kLadderHigh + 1;
  if (nominal.passes(w.limit_us)) {
    lo = 0;
  } else {
    hi = 0;
  }
  const double probe_s = args.seconds / 2.0 / kMaxProbes;
  for (int64_t probe = 0; probe < kMaxProbes && hi - lo > 1; ++probe) {
    const int64_t mid = lo + (hi - lo) / 2;
    const double rate =
        w.nominal_rps * std::pow(kLadderRatio, static_cast<double>(mid));
    const PhaseStats st = run_phase(
        w, dep.target, pool, dep.tasks,
        make_schedule(w, rate, probe_s,
                      mix_seed(args.seed, 1 + static_cast<uint64_t>(probe))),
        rate);
    print_phase("probe", st, w.limit_us);
    mismatches += st.mismatched;
    (st.passes(w.limit_us) ? lo : hi) = mid;
  }
  // lo below the ladder: every rung probed failed, so the capacity is below
  // the lowest rung and reads 0.
  const double capacity =
      lo < kLadderLow
          ? 0.0
          : w.nominal_rps * std::pow(kLadderRatio, static_cast<double>(lo));
  const double f1 = task_f1(nominal, pool, options.eval_iou);
  const double slo = static_cast<double>(nominal.within_limit) /
                     static_cast<double>(nominal.sent);
  const double error_rate = static_cast<double>(nominal.errors()) /
                            static_cast<double>(nominal.sent);
  std::printf("capacity %.1f/s (rung %lld%s)  slo_attainment %.5f  task_f1 "
              "%.5f over %zu distinct (config, task, scene) keys  "
              "error_rate %.5f\n",
              capacity, static_cast<long long>(lo),
              lo < kLadderLow ? ", no rung passed" : "", slo, f1,
              nominal.served.size(), error_rate);

  JsonOut json;
  if (!args.trace) {
    json.add("cpu_us_per_request", nominal.cpu_us_per_request, "us");
    json.add("task_f1", f1, "ratio");
    json.add("peak_rss_mb", serving_peak_mb, "MB");
    json.add("setup_s", setup_median(&SetupTimes::total_s), "s");
  } else {
    // Traced run: the nominal schedule's first half again with the
    // profiling hooks on, then each layer's public entry points timed from
    // outside.
    const std::vector<Arrival> traced_schedule(
        nominal_schedule.begin(),
        nominal_schedule.begin() +
            static_cast<std::ptrdiff_t>(nominal_schedule.size() / 2));
    profile::reset();
    profile::set_enabled(true);
    const PhaseStats traced = run_phase(w, dep.target, pool, dep.tasks,
                                        traced_schedule, w.nominal_rps);
    profile::set_enabled(false);
    profile::reset();
    print_phase("traced", traced, w.limit_us);
    mismatches += traced.mismatched;
    attempted += traced.sent;
    failed += traced.errors();
    dep.target.shutdown();

    // Wall-clock serving figures: exact, but on a shared virtualised host
    // their run-to-run spread is far wider than any usable bound (measured
    // IQR/median 0.8-1.0 for p50 over ten runs), so they are reported here
    // rather than gated end to end.
    json.add("serving.p50_us", nominal.p(0.5), "us");
    json.add("serving.p99_us", nominal.windowed_p99(), "us");
    json.add("serving.capacity_rps", capacity, "1/s");
    json.add("serving.slo_attainment", slo, "ratio");
    const core::TaskHandle& task0 = dep.tasks.front();
    const std::vector<Call> calls = served_calls(nominal);
    const int64_t gap_us = idle_gap_us(calls, nominal_s);
    const CoreTimes ct = time_core(*dep.snapshot, pool, dep.tasks, gap_us);
    const PipelineTimes pt =
        time_pipeline(*dep.snapshot, pool, dep.tasks, options);
    const double fuse_us =
        time_fusion(*dep.snapshot, pool, dep.tasks, ro.fusion);
    const double explained = reconcile(calls, ct);
    const double reconcile_error = std::fabs(1.0 - explained);
    const bool reconciled = reconcile_error <= kReconcileTolerance;
    std::printf("reconcile: core infer_raw+decode_batch explain %.3f of the "
                "served infer span over %zu calls (idle gap %lld us, "
                "tolerance %.2f) %s\n",
                explained, calls.size(), static_cast<long long>(gap_us),
                kReconcileTolerance, reconciled ? "ok" : "OUT");

    const auto q = [](const std::vector<double>& v, double p) {
      return quantile(v, p);
    };
    const auto queue = collect(nominal.items, [](const Item& i) { return i.queue_us; });
    const auto form = collect(nominal.items, [](const Item& i) { return i.formation_us; });
    const auto infer = collect(nominal.items, [](const Item& i) { return i.infer_us; });
    const auto batch = collect(nominal.items, [](const Item& i) { return i.batch_size; });
    std::printf("runtime spans over %zu served items; group view spread over "
                "%zu groups; lag over %zu sends\n",
                nominal.items.size(), nominal.view_spread_us.size(),
                nominal.lag_us.size());
    json.add("runtime.queue_wait_us.p50", q(queue, 0.5), "us");
    json.add("runtime.queue_wait_us.p99", q(queue, 0.99), "us");
    json.add("runtime.batch_formation_us.p99", q(form, 0.99), "us");
    json.add("runtime.batch_size.mean", mean(batch), "count");
    json.add("runtime.infer_span_us.p50", q(infer, 0.5), "us");
    json.add("runtime.rejected_queue_full",
             static_cast<double>(nominal.queue_full), "count");
    json.add("runtime.requests_expired",
             static_cast<double>(nominal.requests_expired), "count");
    json.add("runtime.hot_path_allocs", static_cast<double>(nominal.hot_allocs),
             "count");
    json.add("runtime.arena_overflow_allocs",
             static_cast<double>(nominal.arena_overflows), "count");
    json.add("runtime.fleet_failovers", static_cast<double>(nominal.failovers),
             "count");
    json.add("runtime.shard_load_ratio", nominal.shard_load_ratio, "ratio");
    json.add("runtime.view_spread_us.p99",
             nominal.view_spread_us.empty() ? 0.0 : q(nominal.view_spread_us, 0.99),
             "us");
    json.add("runtime.error_rate", error_rate, "ratio");
    json.add("harness.generator_lag_us.p99", quantile(nominal.lag_us, 0.99),
             "us");
    json.add("harness.valid", valid ? 1.0 : 0.0, "count");
    json.add("trace.overhead_p50_us", traced.p(0.5) - nominal.p(0.5), "us");
    json.add("trace.serving_cpu_overhead_us",
             traced.cpu_us_per_request - nominal.cpu_us_per_request, "us");
    json.add("reconcile.error", reconcile_error, "ratio");
    json.add("reconcile.within_tolerance", reconciled ? 1.0 : 0.0, "count");
    for (const ConfigKind c : kConfigs) {
      const std::string tag = config_tag(c);
      const auto& raw = ct.raw_us[config_slot(c)];
      json.add("core.infer_raw_us." + tag + ".b1", raw[1], "us");
      json.add("core.infer_raw_us." + tag + ".b8", raw[kMaxBatch], "us");
      json.add("core.b8_per_image_over_b1." + tag,
               raw[kMaxBatch] / kMaxBatch / raw[1], "ratio");
      json.add("core.decode_batch_us." + tag,
               ct.decode_us[config_slot(c)][1], "us");
    }
    json.add("core.plan_workspace_kib",
             static_cast<double>(dep.snapshot->plan_workspace(kMaxBatch)) /
                 1024.0,
             "KiB");
    for (const ConfigKind c : kConfigs) {
      const SectionShare s = profile_core(*dep.snapshot, pool, task0, c);
      const std::string tag = config_tag(c);
      for (int i = 0; i < static_cast<int>(profile::Section::kCount); ++i) {
        // The FP32 students never reach the int8 sections.
        if (c == ConfigKind::kTaskSpecific &&
            i >= static_cast<int>(profile::Section::kInt8Pack)) {
          continue;
        }
        const std::string name = std::string("tensor.") + tag + "." +
                                 profile::section_name(
                                     static_cast<profile::Section>(i));
        json.add(name + ".ns_per_call", s.ns_per_call[static_cast<size_t>(i)],
                 "ns");
        json.add(name + ".share", s.share[static_cast<size_t>(i)], "ratio");
      }
      json.add("tensor." + tag + ".outside_gemm_share", s.outside, "ratio");
    }
    json.add("detect.decode_us", pt.decode_us, "us");
    json.add("kg.match_us", pt.match_us, "us");
    json.add("detect.nms_us", pt.nms_us, "us");
    json.add("detect.candidates_per_image", pt.candidates_per_image, "count");
    json.add("kg.relevant_ratio", pt.relevant_ratio, "ratio");
    json.add("detect.nms_keep_ratio", pt.nms_keep_ratio, "ratio");
    json.add("detect.fuse_views_us.p50", fuse_us, "us");
    json.add("setup.pretrain_s", setup_median(&SetupTimes::pretrain_s), "s");
    json.add("setup.distill_s", setup_median(&SetupTimes::distill_s), "s");
    json.add("setup.quantize_s", setup_median(&SetupTimes::quantize_s), "s");
    json.add("setup.publish_s", setup_median(&SetupTimes::publish_s), "s");
    json.add("setup.peak_rss_mb", setup_peak_mb, "MB");
  }
  dep.target.shutdown();

  const bool correct = mismatches == 0 && nominal.ok > 0;
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "serve_bench: %lld served results differ from the serial "
                 "reference\n",
                 static_cast<long long>(mismatches));
  }
  std::printf("%s\n", json.render(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v != "0";
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be > 0");
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
}
