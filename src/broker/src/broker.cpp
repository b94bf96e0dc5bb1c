#include "ntco/broker/broker.hpp"

#include <algorithm>
#include <utility>

#include "ntco/common/contracts.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/partition/cost_model.hpp"

namespace ntco::broker {

Broker::Broker(sim::Simulator& sim, serverless::Platform& platform,
               core::OffloadController& controller,
               const partition::Partitioner& partitioner, BrokerConfig cfg)
    : sim_(sim),
      platform_(platform),
      controller_(controller),
      partitioner_(partitioner),
      cfg_(std::move(cfg)),
      scheduler_(platform, cfg_.defer),
      cache_(cfg_.cache),
      admission_(cfg_.admission),
      dispatcher_(sim, cfg_.batch) {
  // The cache is both the stage-1 lookup and the stage-2 publication
  // point; a two-stage broker without it would resolve into the void.
  NTCO_EXPECTS(!cfg_.two_stage_enabled || cfg_.cache_enabled);
}

void Broker::attach_observer(obs::TraceSink* trace,
                             obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.requests = &metrics->counter("broker.requests");
    m_.completed = &metrics->counter("broker.completed");
    m_.failed = &metrics->counter("broker.failed");
    m_.fast_serves = &metrics->counter("broker.twostage.fast_serves");
    m_.resolves = &metrics->counter("broker.twostage.resolves");
    m_.agreements = &metrics->counter("broker.twostage.agreements");
    m_.decision_us = &metrics->summary("broker.decision_us");
    m_.job_cost_usd = &metrics->summary("broker.job_cost_usd");
    m_.completion_s = &metrics->summary("broker.completion_s");
  }
  cache_.attach_observer(trace, metrics);
  admission_.attach_observer(trace, metrics);
  dispatcher_.attach_observer(trace, metrics);
}

Duration Broker::admission_estimate(const app::TaskGraph& g,
                                    double bandwidth_scale) const {
  // Coarse on purpose: admission runs *before* planning, so all it can
  // afford is "all the work, remotely, at the reference memory" plus "all
  // boundary state across the radio once". The wireless leg reads the
  // transport's *nominal* spec — the stateful timing methods commit
  // transfers (consume jitter randomness, occupy shared capacity), which
  // an estimate must never do.
  const DataSize ref =
      platform_.quantize_memory(controller_.config().reference_memory);
  const Duration service = platform_.exec_time(ref, g.total_work());
  const net::PathSpec& spec = controller_.transport().spec();
  Duration transfer = spec.up.latency + spec.down.latency;
  const DataRate scaled = spec.up.rate * bandwidth_scale;
  if (scaled > DataRate::bits_per_second(0))
    transfer = transfer + g.total_flow_bytes() / scaled;
  return transfer + service;
}

void Broker::serve(ServeRequest req,
                   // ntco-lint: allow(R6) type-erased API boundary: the callback is bound once per request, off the decision fast path
                   std::function<void(const ServeOutcome&)> done) {
  NTCO_EXPECTS(req.app != nullptr);
  NTCO_EXPECTS(req.battery >= 0.0 && req.battery <= 1.0);
  NTCO_EXPECTS(req.bandwidth_scale > 0.0);
  NTCO_EXPECTS(!req.slack.is_negative());
  ++stats_.requests;
  if (m_.requests) m_.requests->add();
  attempt(std::move(req), sim_.now(), 0, std::move(done), /*is_retry=*/false);
}

void Broker::attempt(ServeRequest req, TimePoint released,
                     std::uint64_t deferrals,
                     // ntco-lint: allow(R6) completion callback threaded through by move, no rebinding per hop
                     std::function<void(const ServeOutcome&)> done,
                     bool is_retry) {
  if (is_retry) admission_.retry_resolved();
  const TimePoint now = sim_.now();
  const TimePoint deadline = released + req.slack;
  const AdmissionDecision d = admission_.decide(
      now, deadline, admission_estimate(*req.app, req.bandwidth_scale));

  switch (d.verdict) {
    case AdmissionVerdict::Admitted:
      decide_and_dispatch(std::move(req), released, deferrals,
                          std::move(done));
      return;
    case AdmissionVerdict::Deferred:
      // ntco-lint: allow(R9) deferral retry handler: runs on the admission backoff path, heap fallback is acceptable there
      sim_.schedule_at(d.retry_at, [this, req = std::move(req), released,
                                    deferrals,
                                    done = std::move(done)]() mutable {
        attempt(std::move(req), released, deferrals + 1, std::move(done),
                /*is_retry=*/true);
      });
      return;
    case AdmissionVerdict::Shed: {
      ++stats_.shed;
      ServeOutcome out;
      out.status = ServeStatus::Shed;
      out.shed_reason = d.reason;
      out.released = released;
      out.finished = now;
      out.deferrals = deferrals;
      if (done) done(out);
      return;
    }
  }
}

void Broker::decide_and_dispatch(ServeRequest req, TimePoint released,
                                 std::uint64_t deferrals,
                                 // ntco-lint: allow(R6) completion callback arrives by move from attempt(), no fresh binding
                                 std::function<void(const ServeOutcome&)> done) {
  const app::TaskGraph& g = *req.app;
  const TimePoint now = sim_.now();

  // The user's link quality perturbs the nominal planning environment;
  // that perturbed environment is both what the partitioner sees and what
  // the cache key quantizes.
  partition::Environment env = controller_.make_environment(g);
  env.uplink = env.uplink * req.bandwidth_scale;
  env.downlink = env.downlink * req.bandwidth_scale;

  DecisionContext ctx;
  ctx.workload = g.name();
  ctx.uplink = env.uplink;
  ctx.rtt = env.uplink_latency + env.downlink_latency;
  ctx.battery = req.battery;
  ctx.hour = static_cast<int>(
      (now.since_origin().count_micros() / 3'600'000'000LL) % 24);

  // Plans are immutable and shared: a cache hit hands the execution path a
  // reference to the cached plan, which outlives any later eviction.
  std::shared_ptr<const core::DeploymentPlan> plan;
  bool hit = false;
  bool heuristic = false;
  if (cfg_.cache_enabled) {
    plan = cache_.lookup(ctx, now);
    hit = plan != nullptr;
  }
  if (plan == nullptr && cfg_.two_stage_enabled) {
    // Stage 1: answer the miss *now* with the cheap heuristic placement
    // and let the exact solver catch up in the background. The heuristic
    // plan is deliberately not cached — the cache only ever publishes
    // exact plans, so a bucket's quality ratchets up, never down.
    core::DeploymentPlan fast =
        controller_.prepare(g, stage1_partitioner(), env);
    heuristic = true;
    ++twostage_.fast_serves;
    if (m_.fast_serves) m_.fast_serves->add();
    if (trace_)
      obs::emit(trace_, now, "broker.twostage.fast_serve",
                {{"workload", std::string_view(g.name())}});
    schedule_exact_resolve(ctx, g, env, fast.partition);
    plan = std::make_shared<const core::DeploymentPlan>(std::move(fast));  // ntco-lint: allow(R6) plan snapshot must outlive async dispatch
  }
  if (plan == nullptr) {
    core::DeploymentPlan fresh = controller_.prepare(g, partitioner_, env);
    plan = std::make_shared<const core::DeploymentPlan>(std::move(fresh));  // ntco-lint: allow(R6) plan snapshot must outlive async dispatch
    if (cfg_.cache_enabled) cache_.insert(ctx, plan, now);  // ntco-lint: allow(R6) cache-miss path only: one insert per newly planned workload
  }

  const Duration decision =
      hit ? cfg_.hit_cost
      : heuristic
          ? cfg_.heuristic_cost
          : cfg_.plan_cost_base +
                cfg_.plan_cost_per_component *
                    static_cast<double>(g.component_count());
  if (m_.decision_us)
    m_.decision_us->add(static_cast<double>(decision.count_micros()));

  // The decision itself takes simulated time; dispatch resumes after it.
  // ntco-lint: allow(R9) dispatch continuation carries the plan handle and completion callback; deliberate heap fallback
  sim_.schedule_after(decision, [this, req = std::move(req), released,
                                 deferrals, plan = std::move(plan), hit,
                                 heuristic, decision,
                                 done = std::move(done)]() mutable {
    const app::TaskGraph& truth = *req.app;
    const TimePoint resumed = sim_.now();
    const TimePoint deadline = released + req.slack;
    const Duration slack_left =
        deadline > resumed ? deadline - resumed : Duration::zero();
    const sched::DeferredJob job{truth.name(), truth.total_work(), slack_left};
    const Duration est = plan->predicted.latency;
    const TimePoint start = scheduler_.plan_start(resumed, job, est);

    BatchDispatcher::Job run =
        [this, plan, truth_ptr = req.app, released, hit, heuristic, decision,
         deferrals,
         // ntco-lint: allow(R6) batch completion hook: bound once per dispatched job
         done = std::move(done)](std::function<void()> batch_done) mutable {
          controller_.execute_async(
              *plan, *truth_ptr,
              [this, plan, released, hit, heuristic, decision, deferrals,
               done = std::move(done), batch_done = std::move(batch_done)](
                  const core::ExecutionReport& r) mutable {
                ServeOutcome out;
                out.status = r.failed ? ServeStatus::Failed
                                      : ServeStatus::Completed;
                out.cache_hit = hit;
                out.heuristic_serve = heuristic;
                out.decision_latency = decision;
                out.released = released;
                out.finished = sim_.now();
                out.deferrals = deferrals;
                out.report = r;
                if (r.failed) {
                  ++stats_.failed;
                  if (m_.failed) m_.failed->add();
                } else {
                  ++stats_.completed;
                  if (m_.completed) m_.completed->add();
                }
                if (m_.job_cost_usd)
                  m_.job_cost_usd->add(r.cloud_cost.to_usd());
                if (m_.completion_s)
                  m_.completion_s->add((out.finished - released).to_seconds());
                if (batch_done) batch_done();
                if (done) done(out);
              });
        };

    if (cfg_.batching_enabled) {
      // Align the start up to the batch grid so compatible users flush
      // together, but never past the latest deadline-safe start.
      const TimePoint latest = scheduler_.latest_start(resumed, job, est);
      const std::int64_t grid = cfg_.batch.interval.count_micros();
      const std::int64_t s = start.since_origin().count_micros();
      TimePoint flush_at =
          TimePoint::at(Duration::micros((s + grid - 1) / grid * grid));
      if (flush_at > latest) flush_at = latest;
      if (flush_at < start) flush_at = start;
      dispatcher_.enqueue(truth.name(), flush_at, std::move(run));
    } else {
      sim_.schedule_at(std::max(start, resumed),
                       [run = std::move(run)]() mutable { run([] {}); });
    }
  });
}

void Broker::schedule_exact_resolve(const DecisionContext& ctx,
                                    const app::TaskGraph& g,
                                    partition::Environment env,
                                    partition::Partition heuristic) {
  // One exact solve in flight per bucket: a burst of same-bucket misses
  // (the vehicular regime) triggers one solver run, not a storm.
  PlanKey key = quantize(ctx, cfg_.cache);
  if (!resolving_.insert(key).second) return;  // ntco-lint: allow(R6) stage-2 dedup set: one node per distinct in-flight bucket, off the fast answer path

  // Measured ring pressure stretches the resolve: saturated rings delay
  // refinement (stage 2), never the fast answer (stage 1).
  const double pressure =
      backpressure_ == nullptr
          ? 0.0
          : std::clamp(backpressure_->pressure(), 0.0, 1.0);
  const Duration solve =
      cfg_.plan_cost_base +
      cfg_.plan_cost_per_component * static_cast<double>(g.component_count());
  const Duration latency = solve * (1.0 + pressure);

  sim_.schedule_after(latency, [this, key = std::move(key), ctx, g = &g,
                                env = std::move(env),
                                heuristic = std::move(heuristic)]() mutable {
    resolving_.erase(key);
    const TimePoint now = sim_.now();
    core::DeploymentPlan exact = controller_.prepare(*g, partitioner_, env);
    const bool agreed = exact.partition == heuristic;
    ++twostage_.resolves;
    if (agreed) ++twostage_.agreements;
    if (m_.resolves) m_.resolves->add();
    if (agreed && m_.agreements) m_.agreements->add();
    if (trace_)
      obs::emit(trace_, now, "broker.twostage.resolve",
                {{"workload", std::string_view(ctx.workload)},
                 {"agreed", agreed}});
    // ntco-lint: allow(R6) stage-2 publication: one cache write per resolved bucket, off the serving path
    cache_.insert(ctx, std::make_shared<const core::DeploymentPlan>(
                           std::move(exact)),
                  now);
  });
}

}  // namespace ntco::broker
