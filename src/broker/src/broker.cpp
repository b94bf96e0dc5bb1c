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

void Broker::serve(ServeRequest req, ServeCallback done) {
  NTCO_EXPECTS(req.app != nullptr);
  NTCO_EXPECTS(req.battery >= 0.0 && req.battery <= 1.0);
  NTCO_EXPECTS(req.bandwidth_scale > 0.0);
  NTCO_EXPECTS(!req.slack.is_negative());
  ++stats_.requests;
  if (m_.requests) m_.requests->add();
  if (free_requests_ == nullptr) free_requests_ = &requests_.emplace_back();  // ntco-lint: allow(R6) record pool grows only past its high-water mark of in-flight requests; freed records are reused
  Request* rec = std::exchange(free_requests_, free_requests_->next_free);
  ++live_requests_;
  *rec = {.req = req, .released = sim_.now(), .done = std::move(done)};
  attempt(rec);
}

void Broker::attempt(Request* rec) {
  const AdmissionDecision d = admission_.decide(
      sim_.now(), rec->released + rec->req.slack,
      admission_estimate(*rec->req.app, rec->req.bandwidth_scale));

  if (d.verdict == AdmissionVerdict::Admitted) {
    decide_and_dispatch(rec);
  } else if (d.verdict == AdmissionVerdict::Deferred) {
    sim_.schedule_at(d.retry_at, [this, rec] {
      admission_.retry_resolved();
      ++rec->deferrals;
      attempt(rec);
    });
  } else {
    ++stats_.shed;
    finish(rec, {.status = ServeStatus::Shed, .shed_reason = d.reason});
  }
}

void Broker::decide_and_dispatch(Request* rec) {
  const app::TaskGraph& g = *rec->req.app;
  const TimePoint now = sim_.now();

  // The user's link quality perturbs the nominal planning environment;
  // that perturbed environment is both what the partitioner sees and what
  // the cache key quantizes.
  partition::Environment env = controller_.make_environment(g);
  env.uplink = env.uplink * rec->req.bandwidth_scale;
  env.downlink = env.downlink * rec->req.bandwidth_scale;

  DecisionContext ctx;
  ctx.workload = g.name();
  ctx.uplink = env.uplink;
  ctx.rtt = env.uplink_latency + env.downlink_latency;
  ctx.battery = rec->req.battery;
  ctx.hour = static_cast<int>(
      (now.since_origin().count_micros() / 3'600'000'000LL) % 24);

  // Plans are immutable and shared: a cache hit hands the execution path a
  // reference to the cached plan, which outlives any later eviction.
  std::shared_ptr<const core::DeploymentPlan>& plan = rec->plan;
  if (cfg_.cache_enabled) {
    plan = cache_.lookup(ctx, now);
    rec->hit = plan != nullptr;
  }
  if (plan == nullptr && cfg_.two_stage_enabled) {
    // Stage 1: answer the miss *now* with the cheap heuristic placement
    // and let the exact solver catch up in the background. The heuristic
    // plan is deliberately not cached — the cache only ever publishes
    // exact plans, so a bucket's quality ratchets up, never down.
    const partition::Partitioner* h = cfg_.heuristic_partitioner;
    core::DeploymentPlan fast =
        controller_.prepare(g, h != nullptr ? *h : all_remote_, env);
    rec->heuristic = true;
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

  rec->decision =
      rec->hit ? cfg_.hit_cost
      : rec->heuristic
          ? cfg_.heuristic_cost
          : cfg_.plan_cost_base +
                cfg_.plan_cost_per_component *
                    static_cast<double>(g.component_count());
  if (m_.decision_us)
    m_.decision_us->add(static_cast<double>(rec->decision.count_micros()));

  // The decision itself takes simulated time; dispatch resumes after it.
  sim_.schedule_after(rec->decision, [this, rec] { dispatch(rec); });
}

void Broker::dispatch(Request* rec) {
  const app::TaskGraph& truth = *rec->req.app;
  const TimePoint resumed = sim_.now();
  const TimePoint deadline = rec->released + rec->req.slack;
  const Duration slack_left =
      deadline > resumed ? deadline - resumed : Duration::zero();
  const sched::DeferredJob job{truth.name(), truth.total_work(), slack_left};
  const Duration est = rec->plan->predicted.latency;
  const TimePoint start = scheduler_.plan_start(resumed, job, est);
  if (!cfg_.batching_enabled) {
    sim_.schedule_at(std::max(start, resumed), [this, rec] { execute(rec); });
    return;
  }
  dispatcher_.enqueue(truth.name(), start,
                      scheduler_.latest_start(resumed, job, est),
                      [this, rec](BatchDispatcher::Lane lane) {
                        rec->lane = lane;
                        execute(rec);
                      });
}

void Broker::execute(Request* rec) {
  controller_.execute_async(
      *rec->plan, *rec->req.app, [this, rec](const core::ExecutionReport& r) {
        ++(r.failed ? stats_.failed : stats_.completed);
        if (obs::Counter* c = r.failed ? m_.failed : m_.completed) c->add();
        if (m_.job_cost_usd) m_.job_cost_usd->add(r.cloud_cost.to_usd());
        if (m_.completion_s)
          m_.completion_s->add((sim_.now() - rec->released).to_seconds());
        // The lane's successor starts before the user hears back.
        if (cfg_.batching_enabled) dispatcher_.complete(rec->lane);
        finish(rec, {.status = r.failed ? ServeStatus::Failed
                                        : ServeStatus::Completed,
                     .report = r});
      });
}

void Broker::finish(Request* rec, ServeOutcome out) {
  NTCO_EXPECTS(live_requests_ > 0);
  --live_requests_;
  out.cache_hit = rec->hit;
  out.heuristic_serve = rec->heuristic;
  out.decision_latency = rec->decision;
  out.released = rec->released;
  out.finished = sim_.now();
  out.deferrals = rec->deferrals;
  const Request last = std::exchange(*rec, Request{});
  rec->next_free = std::exchange(free_requests_, rec);
  if (last.done) last.done(out);
}

void Broker::schedule_exact_resolve(const DecisionContext& ctx,
                                    const app::TaskGraph& g,
                                    partition::Environment env,
                                    partition::Partition heuristic) {
  // One exact solve in flight per bucket: a burst of same-bucket misses
  // (the vehicular regime) triggers one solver run, not a storm.
  auto [it, fresh] = resolving_.try_emplace(quantize(ctx, cfg_.cache));  // ntco-lint: allow(R6) stage-2 dedup map: one node per distinct in-flight bucket holds the resolve inputs, off the fast answer path
  if (!fresh) return;
  it->second = Resolve{ctx, &g, std::move(env), std::move(heuristic)};

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

  // std::map nodes are stable: the handler holds the node, not its inputs.
  sim_.schedule_after(latency, [this, pos = it] {
    auto node = resolving_.extract(pos);
    const Resolve& r = node.mapped();
    const TimePoint now = sim_.now();
    core::DeploymentPlan exact =
        controller_.prepare(*r.graph, partitioner_, r.env);
    const bool agreed = exact.partition == r.heuristic;
    ++twostage_.resolves;
    if (agreed) ++twostage_.agreements;
    if (m_.resolves) m_.resolves->add();
    if (agreed && m_.agreements) m_.agreements->add();
    if (trace_)
      obs::emit(trace_, now, "broker.twostage.resolve",
                {{"workload", std::string_view(r.ctx.workload)},
                 {"agreed", agreed}});
    // ntco-lint: allow(R6) stage-2 publication: one cache write per resolved bucket, off the serving path
    cache_.insert(r.ctx, std::make_shared<const core::DeploymentPlan>(
                             std::move(exact)),
                  now);
  });
}

}  // namespace ntco::broker
