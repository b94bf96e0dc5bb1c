#include "ntco/core/controller.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ntco/alloc/memory_optimizer.hpp"
#include "ntco/common/error.hpp"

namespace ntco::core {

OffloadController::OffloadController(sim::Simulator& sim,
                                     serverless::Platform& platform,
                                     device::Device& device,
                                     net::Transport& path,
                                     ControllerConfig cfg)
    : sim_(sim), platform_(platform), device_(device), path_(path), cfg_(cfg) {
  if (cfg_.expected_warm_rate < 0.0 || cfg_.expected_warm_rate > 1.0)
    throw ConfigError("expected_warm_rate must lie in [0, 1]");
}

void OffloadController::attach_observer(obs::TraceSink* trace,
                                        obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.runs = &metrics->counter("core.runs");
    m_.run_failures = &metrics->counter("core.run_failures");
    m_.local_fallbacks = &metrics->counter("core.local_fallbacks");
    m_.transfer_failures = &metrics->counter("core.transfer_failures");
    m_.plan_deploys = &metrics->counter("core.plan_deploys");
    m_.plan_reuses = &metrics->counter("core.plan_reuses");
    m_.makespan_ms = &metrics->summary("core.makespan_ms");
    m_.cloud_cost_usd = &metrics->summary("core.cloud_cost_usd");
    m_.device_energy_j = &metrics->summary("core.device_energy_j");
  }
}

void OffloadController::observe_run_end(const ExecutionReport& r) {
  if (m_.runs) {
    m_.runs->add();
    if (r.failed) m_.run_failures->add();
    m_.local_fallbacks->add(r.local_fallbacks);
    m_.transfer_failures->add(r.transfer_failures);
    m_.makespan_ms->add(r.makespan.to_millis());
    m_.cloud_cost_usd->add(r.cloud_cost.to_usd());
    m_.device_energy_j->add(r.device_energy.to_joules());
  }
  if (trace_)
    obs::emit(trace_, sim_.now(), "ctl.run.end",
              {{"makespan", r.makespan},
               {"failed", r.failed},
               {"cloud_cost", r.cloud_cost},
               {"remote_invocations", r.remote_invocations},
               {"cold_starts", r.cold_starts},
               {"transfer_failures", r.transfer_failures},
               {"local_fallbacks", r.local_fallbacks}});
}

partition::Environment OffloadController::make_environment(
    const app::TaskGraph& g) const {
  partition::Environment env;
  env.device = device_.spec();

  const DataSize ref = platform_.quantize_memory(cfg_.reference_memory);
  env.remote_speed =
      platform_.config().core_speed * platform_.cpu_share(ref);

  // Amortise the expected cold-start share of the average image into the
  // per-invocation overhead.
  Duration cold;
  if (g.pinned_count() < g.component_count())
    cold = platform_.cold_start_time(g.mean_offloadable_image());
  env.remote_overhead =
      cfg_.dispatch_overhead + cold * (1.0 - cfg_.expected_warm_rate);

  const double ref_gb = static_cast<double>(ref.count_bytes()) / 1e9;
  env.remote_price_per_second =
      platform_.config().price_per_gb_second * ref_gb;
  env.price_per_invocation = platform_.config().price_per_request;

  const net::PathSpec& spec = path_.spec();
  env.uplink = spec.up.rate;
  env.downlink = spec.down.rate;
  env.uplink_latency = spec.up.latency;
  env.downlink_latency = spec.down.latency;
  return env;
}

DeploymentPlan OffloadController::prepare(
    const app::TaskGraph& g, const partition::Partitioner& partitioner) {
  return prepare(g, partitioner, make_environment(g));
}

DeploymentPlan OffloadController::prepare(
    const app::TaskGraph& g, const partition::Partitioner& partitioner,
    const partition::Environment& env) {
  DeploymentPlan plan;
  plan.environment = env;
  const partition::CostModel model(g, plan.environment, cfg_.objective);
  plan.partition = partitioner.plan(model);
  NTCO_ENSURES(plan.partition.respects_pins(g));
  plan.predicted = model.breakdown(plan.partition);

  plan.function_of.assign(g.component_count(),
                          DeploymentPlan::kInvalidFunction);
  plan.memory_of.assign(g.component_count(), DataSize::zero());

  // Size every remote component's function first; the chosen sizes (not
  // the environment that produced them) are what deployment must be
  // idempotent over.
  auto& [app_name, placement, functions] = deploy_probe_;
  app_name = g.name();
  placement = plan.partition.placement;
  std::size_t remote = 0;
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (!plan.partition.is_remote(id)) continue;
    const auto& comp = g.component(id);
    plan.memory_of[id] = function_memory(comp, plan.environment.remote_speed);
    if (remote == functions.size()) functions.emplace_back();
    DeployedFunction& f = functions[remote++];
    f.name = comp.name;
    f.memory_bytes = plan.memory_of[id].count_bytes();
    f.image_bytes = comp.image.count_bytes();
  }
  functions.resize(remote);

  const auto memo = deployed_.find(deploy_probe_);
  if (memo != deployed_.end()) {
    // Same functions, same sizes: reuse the deployment (and its warm
    // instances) instead of registering cold duplicates.
    NTCO_ENSURES(memo->second.size() == remote);
    std::size_t next = 0;
    for (app::ComponentId id = 0; id < g.component_count(); ++id)
      if (plan.partition.is_remote(id))
        plan.function_of[id] = memo->second[next++];
    if (m_.plan_reuses) m_.plan_reuses->add();
    if (trace_)
      obs::emit(trace_, sim_.now(), "ctl.deploy.reuse",
                {{"app", std::string_view(g.name())}, {"functions", remote}});
    return plan;
  }

  std::vector<serverless::FunctionId> ids;
  ids.reserve(remote);
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (!plan.partition.is_remote(id)) continue;
    const auto& comp = g.component(id);
    plan.function_of[id] = platform_.deploy(serverless::FunctionSpec{
        g.name() + "/" + comp.name, plan.memory_of[id], comp.image,
        comp.parallel_fraction});
    ids.push_back(plan.function_of[id]);
  }
  deployed_.emplace(deploy_probe_, std::move(ids));
  if (m_.plan_deploys) m_.plan_deploys->add();
  return plan;
}

DataSize OffloadController::function_memory(const app::Component& comp,
                                            Frequency remote_speed) {
  // Keep the allocation coherent with the plan: the function must run no
  // slower than the speed the partitioner assumed (plus 5% tolerance), and
  // within any caller-supplied per-component deadline.
  const Duration planned_exec = comp.work / remote_speed;
  const Duration deadline =
      std::min(cfg_.component_deadline, planned_exec * 1.05);
  const MemoryKey key{comp.work.value(), comp.memory.count_bytes(),
                      comp.parallel_fraction, deadline.count_micros(),
                      cfg_.memory_step.count_bytes()};
  const auto hit = memory_memo_.find(key);
  if (hit != memory_memo_.end()) return hit->second;
  const DataSize chosen =
      alloc::MemoryOptimizer(platform_)
          .choose(comp.work, comp.memory, comp.parallel_fraction, deadline,
                  cfg_.memory_step)
          .chosen.memory;
  memory_memo_.emplace(key, chosen);
  return chosen;
}

OffloadController::RadioResult OffloadController::radio_with_retries(
    bool upload, DataSize bytes, ExecutionReport& report) {
  const net::LinkDirection dir =
      upload ? net::LinkDirection::Up : net::LinkDirection::Down;
  RadioResult result;
  for (std::size_t attempt = 0; attempt <= cfg_.max_transfer_retries;
       ++attempt) {
    const net::TransferAttempt a = path_.attempt(dir, bytes);
    result.elapsed += a.elapsed;
    report.transfer += a.elapsed;
    report.device_energy +=
        upload ? device_.tx_energy(a.elapsed) : device_.rx_energy(a.elapsed);
    if (trace_)
      obs::emit(trace_, sim_.now(), "ctl.transfer.attempt",
                {{"dir", upload ? "up" : "down"},
                 {"bytes", bytes},
                 {"attempt", attempt},
                 {"ok", a.ok},
                 {"elapsed", a.elapsed}});
    if (a.ok) {
      result.ok = true;
      return result;
    }
    ++report.transfer_failures;
    if (trace_ && attempt < cfg_.max_transfer_retries)
      obs::emit(trace_, sim_.now(), "ctl.transfer.retry",
                {{"dir", upload ? "up" : "down"},
                 {"bytes", bytes},
                 {"next_attempt", attempt + 1}});
  }
  result.ok = false;
  if (trace_)
    obs::emit(trace_, sim_.now(), "ctl.transfer.exhausted",
              {{"dir", upload ? "up" : "down"}, {"bytes", bytes}});
  return result;
}

// ntco-lint: hotpath begin
OffloadController::Run* OffloadController::acquire(
    const DeploymentPlan& plan, const app::TaskGraph& truth,
    RunCallback done) {
  if (free_runs_ == nullptr) free_runs_ = &runs_.emplace_back();  // ntco-lint: allow(R6) run-record pool grows only past its high-water mark of concurrent executions; finished records are reused
  Run* run = std::exchange(free_runs_, free_runs_->next_free);
  ++live_runs_;
  run->plan = &plan;
  run->truth = &truth;
  run->begin = sim_.now();
  run->report = {};
  run->done = std::move(done);
  run->finished = false;
  return run;
}

void OffloadController::release(Run* run) {
  run->done = nullptr;
  run->next_free = std::exchange(free_runs_, run);
  --live_runs_;
}

void OffloadController::finish(Run* run) {
  run->finished = true;
  observe_run_end(run->report);
  run->done(run->report);
  if (run->in_flight == 0) release(run);
}

void OffloadController::settle(Run* run) {
  NTCO_EXPECTS(run->in_flight > 0);
  if (--run->in_flight == 0 && run->finished) release(run);
}

void OffloadController::execute_async(const DeploymentPlan& plan,
                                      const app::TaskGraph& truth,
                                      RunCallback done) {
  NTCO_EXPECTS(done != nullptr);
  NTCO_EXPECTS(plan.partition.placement.size() == truth.component_count());
  const bool sequential = cfg_.execution_mode == ExecutionMode::Sequential;
  if (trace_)
    obs::emit(trace_, sim_.now(), "ctl.run.begin",
              {{"app", std::string_view(truth.name())},
               {"mode", sequential ? "sequential" : "parallel"},
               {"components", truth.component_count()},
               {"remote", plan.partition.remote_count()}});
  const std::size_t n = truth.component_count();
  if (sequential) {
    const auto& order = truth.topological_order();  // throws on a cycle
    Run* run = acquire(plan, truth, std::move(done));
    run->order = &order;
    run->next = 0;
    run->ran_remote.assign(n, false);
    step(run);
    return;
  }

  // Parallel (dataflow) execution.
  if (!truth.is_dag())
    throw ConfigError("parallel execution requires an acyclic graph");
  Run* run = acquire(plan, truth, std::move(done));
  run->remaining = n;
  run->device_busy = false;
  run->pending_inputs.assign(n, 0);
  run->local_ready.assign(n, 0);
  run->local_head = 0;
  run->local_tail = 0;
  run->uplink_free = sim_.now();
  run->downlink_free = sim_.now();
  for (app::ComponentId v = 0; v < n; ++v)
    run->pending_inputs[v] = truth.in_flows(v).size();
  for (app::ComponentId v = 0; v < n; ++v)
    if (run->pending_inputs[v] == 0) par_component_ready(run, v);
}

void OffloadController::par_component_ready(Run* run, app::ComponentId v) {
  if (run->finished) return;
  if (!run->plan->is_remote(v)) {
    if (run->device_busy) {
      run->local_ready[run->local_tail++] = v;
    } else {
      par_start_local(run, v);
    }
    return;
  }
  // Remote components run concurrently on the platform.
  const auto fn = run->plan->function_for(v);
  NTCO_EXPECTS(fn.has_value());
  const TimePoint invoked = sim_.now();
  auto on_done = [this, run, v,
                  invoked](const serverless::InvocationResult& r) {
    run->report.remote_compute += r.exec_time;
    run->report.cloud_cost += r.cost;
    run->report.waiting += r.finished - invoked;
    ++run->report.remote_invocations;
    if (r.cold_start) ++run->report.cold_starts;
    par_component_done(run, v);
    settle(run);
  };
  static_assert(
      serverless::Platform::Callback::stores_inline<decltype(on_done)>(),
      "the parallel completion capture must fit Platform::Callback inline");
  ++run->in_flight;
  platform_.invoke(*fn, run->truth->component(v).work, std::move(on_done));
}

void OffloadController::par_start_local(Run* run, app::ComponentId v) {
  run->device_busy = true;
  const Cycles work = run->truth->component(v).work;
  const Duration exec = device_.exec_time(work);
  run->report.local_compute += exec;
  run->report.device_energy += device_.exec_energy(work);
  ++run->in_flight;
  sim_.schedule_after(exec, [this, run, v] {
    run->device_busy = false;
    if (run->local_head < run->local_tail)
      par_start_local(run, run->local_ready[run->local_head++]);
    par_component_done(run, v);
    settle(run);
  });
}

void OffloadController::par_component_done(Run* run, app::ComponentId v) {
  --run->remaining;
  for (const std::size_t fi : run->truth->out_flows(v))
    par_deliver_flow(run, fi);
  par_maybe_finish(run);
}

void OffloadController::par_deliver(Run* run, app::ComponentId to) {
  NTCO_EXPECTS(run->pending_inputs[to] > 0);
  if (--run->pending_inputs[to] == 0) par_component_ready(run, to);
}

void OffloadController::par_deliver_flow(Run* run, std::size_t flow) {
  // A failed run ignores stragglers; its caller may already have released
  // the plan.
  if (run->finished) return;
  const auto& f = run->truth->flow(flow);
  const bool from_remote = run->plan->is_remote(f.from);
  const bool to_remote = run->plan->is_remote(f.to);

  if (from_remote == to_remote) {
    // Same side: in-process (local) or intra-region (remote), free.
    par_deliver(run, f.to);
    return;
  }

  // The transfer queues behind earlier traffic in its radio direction.
  // Retries happen back to back; in dataflow mode an exhausted transfer
  // has no safe fallback (other placements are already in flight), so it
  // escalates to a run failure.
  const bool upload = to_remote;
  const RadioResult radio =
      radio_with_retries(upload, f.bytes, run->report);
  const Duration t = radio.elapsed;
  if (!radio.ok) {
    run->report.failed = true;
    run->report.makespan = (sim_.now() + t) - run->begin;
    finish(run);
    return;
  }
  TimePoint& direction_free = upload ? run->uplink_free : run->downlink_free;
  const TimePoint start = std::max(sim_.now(), direction_free);
  const TimePoint arrival = start + t;
  direction_free = arrival;
  if (!upload)
    run->report.cloud_cost +=
        run->plan->environment.egress_price_per_gb *
        (static_cast<double>(f.bytes.count_bytes()) / 1e9);

  const app::ComponentId to = f.to;
  ++run->in_flight;
  sim_.schedule_at(arrival, [this, run, to] {
    par_deliver(run, to);
    settle(run);
  });
}

void OffloadController::par_maybe_finish(Run* run) {
  if (run->finished || run->remaining > 0) return;
  run->report.makespan = sim_.now() - run->begin;
  // The UE idles whenever it is not computing; radio energy is accounted
  // separately on top (slight overlap double-count, documented).
  const Duration idle = run->report.makespan - run->report.local_compute;
  if (idle > Duration::zero())
    run->report.device_energy += device_.idle_energy(idle);
  finish(run);
}

void OffloadController::step(Run* run) {
  if (run->next == run->order->size()) {
    run->report.makespan = sim_.now() - run->begin;
    finish(run);
    return;
  }

  const app::ComponentId v = (*run->order)[run->next++];
  const auto& g = *run->truth;
  const auto& plan = *run->plan;

  // Phase 1 — decide where v actually runs. If it is planned remote, its
  // local inputs must be uploaded first; an unrecoverable upload failure
  // re-homes v to the UE (the data never left the device, so this is
  // always safe).
  bool remote = plan.is_remote(v);
  Duration transfer;
  if (remote) {
    for (const std::size_t fi : g.in_flows(v)) {
      const auto& f = g.flow(fi);
      if (run->ran_remote[f.from]) continue;  // already in the cloud
      const RadioResult r =
          radio_with_retries(/*upload=*/true, f.bytes, run->report);
      transfer += r.elapsed;
      if (!r.ok) {
        remote = false;
        ++run->report.local_fallbacks;
        if (trace_)
          obs::emit(trace_, sim_.now(), "ctl.fallback.local",
                    {{"component", v}});
        break;
      }
    }
  }

  // Phase 2 — if v runs locally, inputs produced in the cloud must come
  // down. A final download failure strands the data remotely: the run
  // fails.
  if (!remote) {
    for (const std::size_t fi : g.in_flows(v)) {
      const auto& f = g.flow(fi);
      if (!run->ran_remote[f.from]) continue;
      const RadioResult r =
          radio_with_retries(/*upload=*/false, f.bytes, run->report);
      transfer += r.elapsed;
      if (!r.ok) {
        run->report.failed = true;
        run->report.makespan = (sim_.now() + transfer) - run->begin;
        finish(run);
        return;
      }
      run->report.cloud_cost +=
          plan.environment.egress_price_per_gb *
          (static_cast<double>(f.bytes.count_bytes()) / 1e9);
    }
  }

  run->ran_remote[v] = remote;

  if (!remote) {
    const Duration exec = device_.exec_time(g.component(v).work);
    run->report.local_compute += exec;
    run->report.device_energy += device_.exec_energy(g.component(v).work);
    sim_.schedule_after(transfer + exec, [this, run] { step(run); });
    return;
  }

  const auto fn_opt = plan.function_for(v);
  NTCO_EXPECTS(fn_opt.has_value());
  const serverless::FunctionId fn = *fn_opt;
  const Cycles work = g.component(v).work;
  sim_.schedule_after(transfer, [this, run, fn, work] {
    auto on_done = [this, run, invoked = sim_.now()](
                       const serverless::InvocationResult& r) {
      const Duration waited = r.finished - invoked;
      run->report.waiting += waited;
      // The UE idles while the cloud computes.
      run->report.device_energy += device_.idle_energy(waited);
      run->report.remote_compute += r.exec_time;
      run->report.cloud_cost += r.cost;
      ++run->report.remote_invocations;
      if (r.cold_start) ++run->report.cold_starts;
      step(run);
    };
    static_assert(
        serverless::Platform::Callback::stores_inline<decltype(on_done)>(),
        "the sequential completion capture must fit Platform::Callback "
        "inline");
    platform_.invoke(fn, work, std::move(on_done));
  });
}
// ntco-lint: hotpath end

ExecutionReport OffloadController::execute(const DeploymentPlan& plan,
                                           const app::TaskGraph& truth) {
  ExecutionReport report;
  bool done = false;
  execute_async(plan, truth, [&](const ExecutionReport& r) {
    report = r;
    done = true;
  });
  while (!done && sim_.step()) {
  }
  NTCO_ENSURES(done);
  return report;
}

}  // namespace ntco::core
