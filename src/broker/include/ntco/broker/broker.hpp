#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "ntco/app/task_graph.hpp"
#include "ntco/broker/admission.hpp"
#include "ntco/dataplane/backpressure.hpp"
#include "ntco/broker/batch_dispatcher.hpp"
#include "ntco/broker/plan_cache.hpp"
#include "ntco/common/units.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/partition/cost_model.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/sched/deferred_scheduler.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/accumulator.hpp"

/// \file broker.hpp
/// The serving layer: one broker fronting OffloadController for a
/// population of users.
///
/// F5-style experiments recompute the full profile→partition→allocate
/// decision independently for every simulated user — the per-request
/// "compiled plan" redundancy that scalable offloading pipelines eliminate.
/// The broker closes that gap with three layers in front of the
/// controller:
///
///   serve() ─ AdmissionController ─ PlanCache ─ BatchDispatcher ─ core
///
/// 1. **Admission**: a token bucket bounds decision throughput; requests
///    with slack defer under overload, tight ones shed loudly.
/// 2. **Plan cache**: the decision context (workload, link buckets,
///    battery, price window) keys a cached DeploymentPlan; hits skip both
///    the planning work (modelled as simulated decision latency) and —
///    with the controller's fingerprint-idempotent deployment — the
///    redundant function deploys that previously cold-started per user.
/// 3. **Batch dispatch**: starts chosen by sched::DeferredScheduler are
///    aligned on a price-window grid and released as lane-chained batches,
///    so warm instances amortise across users, not just within one user.
///
/// With `two_stage_enabled` the miss path splits in two (the
/// dynamic-vehicular pipeline): stage 1 answers every request immediately
/// — cache hit, or a cheap heuristic placement at `heuristic_cost` — and
/// stage 2 resolves the exact solver asynchronously, publishing its plan
/// through the cache so the *next* request in the bucket gets the exact
/// answer. Fast-churn clients (short link residence) never wait multi-ms
/// solver latency; the solver's work drains in the background, stretched
/// by measured dataplane backpressure.
///
/// One broker serves one shard. Fleet runs give every shard its own
/// broker + platform + cache (see bench_f12_broker); merged artifacts are
/// byte-identical at any NTCO_THREADS because nothing here draws on wall
/// clock or unordered iteration.

namespace ntco::broker {

struct BrokerConfig {
  PlanCacheConfig cache;
  AdmissionConfig admission;
  BatchConfig batch;
  sched::DeferredScheduler::Config defer;
  /// Disable to measure the no-cache baseline (every request replans).
  bool cache_enabled = true;
  /// Disable to dispatch each job individually at its planned start.
  bool batching_enabled = true;
  /// Two-stage decision pipeline (the dynamic-vehicular fast path): a
  /// cache miss is answered *immediately* by a cheap heuristic placement
  /// (cost `heuristic_cost`), while the exact solver resolves
  /// asynchronously and refreshes the cache for subsequent requests in
  /// the same bucket. At most one exact solve is in flight per cache
  /// bucket; measured dataplane backpressure stretches the resolve
  /// latency (saturated rings delay refinement, never the fast answer).
  /// Requires cache_enabled (the cache is the stage-1 lookup and the
  /// stage-2 publication point).
  bool two_stage_enabled = false;
  /// Simulated cost of the stage-1 heuristic placement.
  Duration heuristic_cost = Duration::micros(40);
  /// Stage-1 heuristic partitioner; null uses the built-in all-remote
  /// rule (offload everything not pinned — O(components), no search).
  /// Must outlive the broker when set.
  const partition::Partitioner* heuristic_partitioner = nullptr;
  /// Simulated cost of computing a plan from scratch (profile → partition
  /// → allocate): base plus a per-component term. Charged as decision
  /// latency before dispatch.
  Duration plan_cost_base = Duration::millis(2);
  Duration plan_cost_per_component = Duration::micros(300);
  /// Simulated cost of serving a plan from the cache.
  Duration hit_cost = Duration::micros(5);
};

/// One user's offload request. `app` must outlive the serve (the broker
/// executes against it); it doubles as estimate and truth. Under
/// `two_stage_enabled` it must also outlive the asynchronous exact
/// resolve — in practice, keep task graphs alive until the simulator
/// drains.
struct ServeRequest {
  const app::TaskGraph* app = nullptr;
  /// Delay tolerance: the job may finish any time within release + slack.
  Duration slack = Duration::hours(8);
  /// UE state of charge in [0, 1] (part of the decision context).
  double battery = 1.0;
  /// This user's link quality relative to the path's nominal rates.
  double bandwidth_scale = 1.0;
};

enum class ServeStatus : std::uint8_t {
  Completed,  ///< executed; report is the measured run
  Shed,       ///< rejected by admission (see shed_reason)
  Failed,     ///< executed but the run aborted (transfer loss)
};

/// Final word on one request, delivered to serve()'s callback.
struct ServeOutcome {
  ServeStatus status = ServeStatus::Completed;
  ShedReason shed_reason = ShedReason::None;
  bool cache_hit = false;       ///< plan came from the cache
  /// Served by the stage-1 heuristic while the exact solve resolved
  /// asynchronously (two-stage pipeline only).
  bool heuristic_serve = false;
  Duration decision_latency{};   ///< simulated planning/serving time
  TimePoint released{};          ///< when serve() was called
  TimePoint finished{};          ///< when the outcome fired
  std::uint64_t deferrals = 0;   ///< admission retries this request took
  core::ExecutionReport report{};  ///< valid unless status == Shed
};

/// serve()'s outcome callback.
using ServeCallback = std::function<void(const ServeOutcome&)>;

struct BrokerStats {
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
};

/// Two-stage pipeline accounting (zero unless two_stage_enabled).
struct TwoStageStats {
  std::uint64_t fast_serves = 0;  ///< misses answered by the heuristic
  std::uint64_t resolves = 0;     ///< asynchronous exact solves completed
  std::uint64_t agreements = 0;   ///< exact placement == heuristic placement
};

/// Population-scale serving facade over one OffloadController.
class Broker {
 public:
  /// All references must outlive the broker. `partitioner` is shared by
  /// every planning request.
  Broker(sim::Simulator& sim, serverless::Platform& platform,
         core::OffloadController& controller,
         const partition::Partitioner& partitioner, BrokerConfig cfg);

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Serves one request. The outcome callback fires exactly once — at shed
  /// time, or when the (possibly deferred, batched) execution completes.
  /// Drive the simulator (sim.run()) to make progress.
  void serve(ServeRequest req, ServeCallback done = {});

  [[nodiscard]] const BrokerStats& stats() const { return stats_; }
  [[nodiscard]] const TwoStageStats& twostage() const { return twostage_; }
  [[nodiscard]] const PlanCache& cache() const { return cache_; }
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }
  [[nodiscard]] const BatchDispatcher& dispatcher() const {
    return dispatcher_;
  }
  [[nodiscard]] const BrokerConfig& config() const { return cfg_; }
  /// Requests whose outcome has not fired yet (0 once the simulator has
  /// drained).
  [[nodiscard]] std::size_t live_requests() const { return live_requests_; }

  /// Attaches observability to the broker and its layers. `trace` receives
  /// "broker.*" events; `metrics` hosts the "broker.*" instruments. Either
  /// may be null. Stable names are listed in DESIGN.md ("Observability").
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  /// Forwards to AdmissionController::set_capacity_probe: admission
  /// tightens with downstream serving capacity (e.g. a continuum
  /// federation's capacity_factor) without the broker depending on any
  /// particular capacity provider.
  void set_capacity_probe(std::function<double()> probe) {
    admission_.set_capacity_probe(std::move(probe));
  }

  /// Forwards to AdmissionController::set_backpressure_source: admission
  /// throttles on measured dataplane ring occupancy instead of a mutexed
  /// queue depth (see admission.hpp for the determinism contract). The
  /// two-stage pipeline reads the same source: pressure p stretches the
  /// asynchronous exact-resolve latency by (1+p), so saturated rings slow
  /// refinement down before they slow serving down.
  void set_backpressure_source(const dataplane::BackpressureSource* src) {
    backpressure_ = src;
    admission_.set_backpressure_source(src);
  }

 private:
  /// One serve() call, from admission to outcome. Every event on the
  /// serving path captures `this` plus a pointer to its record; finish()
  /// returns the record to the pool exactly once, when the outcome fires.
  struct Request {
    ServeRequest req;
    TimePoint released;
    std::uint64_t deferrals = 0;
    Duration decision{};
    BatchDispatcher::Lane lane{};  ///< where its batch started it
    bool hit = false;
    bool heuristic = false;
    std::shared_ptr<const core::DeploymentPlan> plan{};
    ServeCallback done;
    Request* next_free = nullptr;  ///< pool free-list link
  };

  /// (Re-)attempts admission; deferred requests loop back here.
  void attempt(Request* rec);
  /// Past admission: cache lookup or fresh plan, then dispatch after the
  /// simulated decision latency.
  void decide_and_dispatch(Request* rec);
  /// Plans the start and hands the job to the batch grid (or the kernel).
  void dispatch(Request* rec);
  void execute(Request* rec);
  /// Completes `out` from the record, frees the record, then delivers.
  void finish(Request* rec, ServeOutcome out);
  /// Rough pre-planning duration estimate used by admission: service time
  /// at the reference memory *plus* the wireless leg at the transport's
  /// nominal spec rates scaled by this user's link quality. Checking the
  /// deadline jointly against transfer and service is what gives hard-
  /// deadline (vehicular) populations real shed pressure — a short link
  /// residence cannot absorb a transfer-dominated job no matter how fast
  /// the cloud is.
  [[nodiscard]] Duration admission_estimate(const app::TaskGraph& g,
                                            double bandwidth_scale) const;

  /// Inputs of one in-flight stage-2 exact solve, kept in resolving_.
  struct Resolve {
    DecisionContext ctx;
    const app::TaskGraph* graph = nullptr;
    partition::Environment env;
    partition::Partition heuristic;
  };

  /// Kicks off the asynchronous stage-2 exact solve for `ctx`'s bucket
  /// unless one is already in flight there.
  void schedule_exact_resolve(const DecisionContext& ctx,
                              const app::TaskGraph& g,
                              partition::Environment env,
                              partition::Partition heuristic);

  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* fast_serves = nullptr;
    obs::Counter* resolves = nullptr;
    obs::Counter* agreements = nullptr;
    stats::Accumulator* decision_us = nullptr;
    stats::Accumulator* job_cost_usd = nullptr;
    stats::Accumulator* completion_s = nullptr;
  };

  sim::Simulator& sim_;
  serverless::Platform& platform_;
  core::OffloadController& controller_;
  const partition::Partitioner& partitioner_;
  BrokerConfig cfg_;
  sched::DeferredScheduler scheduler_;
  PlanCache cache_;
  AdmissionController admission_;
  BatchDispatcher dispatcher_;
  partition::RemoteAllPartitioner all_remote_;
  const dataplane::BackpressureSource* backpressure_ = nullptr;
  /// Buckets with an exact solve in flight (stage-2 dedup): a burst of
  /// same-bucket misses triggers one solver run, not a storm. Each node
  /// holds its resolve's inputs until the solve fires. std::map for
  /// deterministic iteration (lint R2).
  std::map<PlanKey, Resolve> resolving_;
  /// Request-record pool: deque addresses are stable, freed records are
  /// reused through an intrusive free list.
  std::deque<Request> requests_;
  Request* free_requests_ = nullptr;
  std::size_t live_requests_ = 0;
  BrokerStats stats_;
  TwoStageStats twostage_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
};

}  // namespace ntco::broker
