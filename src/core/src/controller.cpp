#include "ntco/core/controller.hpp"

#include <algorithm>
#include <deque>
#include <memory>
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
  DataSize mean_image;
  std::size_t offloadable = 0;
  for (const auto& c : g.components()) {
    if (c.pinned_local) continue;
    mean_image += c.image;
    ++offloadable;
  }
  Duration cold;
  if (offloadable > 0)
    cold = platform_.cold_start_time(
        DataSize::bytes(mean_image.count_bytes() / offloadable));
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
  std::size_t remote = 0;
  std::string fingerprint = g.name();
  fingerprint += '|';
  fingerprint += plan.partition.to_string();
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (!plan.partition.is_remote(id)) continue;
    const auto& comp = g.component(id);
    plan.memory_of[id] = function_memory(comp, plan.environment.remote_speed);
    ++remote;
    fingerprint += '|';
    fingerprint += comp.name;
    fingerprint += '@';
    fingerprint += std::to_string(plan.memory_of[id].count_bytes());
    fingerprint += '#';
    fingerprint += std::to_string(comp.image.count_bytes());
  }

  const auto memo = deployed_.find(fingerprint);
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
  deployed_.emplace(std::move(fingerprint), std::move(ids));
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

/// State every execution mode threads through its event chain.
struct OffloadController::Run {
  const DeploymentPlan* plan = nullptr;
  const app::TaskGraph* truth = nullptr;
  TimePoint begin;
  ExecutionReport report;
  std::function<void(const ExecutionReport&)> done;
};

void OffloadController::finish(Run& run) {
  observe_run_end(run.report);
  run.done(run.report);
}

/// Per-execution state of the sequential executor.
struct OffloadController::RunState : Run {
  std::vector<app::ComponentId> order;
  std::size_t next = 0;
  /// Where each already-executed component actually ran (differs from the
  /// plan after an upload-failure fallback).
  std::vector<bool> ran_remote;
};

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

/// Per-execution state of the dataflow (parallel) executor.
struct OffloadController::ParallelRun : Run {
  std::vector<std::size_t> pending_inputs;  ///< undelivered in-flows per comp
  std::size_t remaining = 0;                ///< components not yet finished
  bool finished = false;  ///< done() already fired (success or failure)
  bool device_busy = false;
  std::deque<app::ComponentId> local_ready;  ///< waiting for the UE core
  TimePoint uplink_free;    ///< next time the uplink can start a transfer
  TimePoint downlink_free;  ///< next time the downlink can start a transfer
};

void OffloadController::execute_async(
    const DeploymentPlan& plan, const app::TaskGraph& truth,
    std::function<void(const ExecutionReport&)> done) {
  NTCO_EXPECTS(done != nullptr);
  NTCO_EXPECTS(plan.partition.placement.size() == truth.component_count());
  const bool sequential = cfg_.execution_mode == ExecutionMode::Sequential;
  if (trace_)
    obs::emit(trace_, sim_.now(), "ctl.run.begin",
              {{"app", std::string_view(truth.name())},
               {"mode", sequential ? "sequential" : "parallel"},
               {"components", truth.component_count()},
               {"remote", plan.partition.remote_count()}});
  if (cfg_.execution_mode == ExecutionMode::Sequential) {
    auto run = std::make_shared<RunState>();
    run->plan = &plan;
    run->truth = &truth;
    run->order = truth.topological_order();
    run->begin = sim_.now();
    run->done = std::move(done);
    step(std::move(run));
    return;
  }

  // Parallel (dataflow) execution.
  if (!truth.is_dag())
    throw ConfigError("parallel execution requires an acyclic graph");
  auto run = std::make_shared<ParallelRun>();
  run->plan = &plan;
  run->truth = &truth;
  run->begin = sim_.now();
  run->done = std::move(done);
  run->remaining = truth.component_count();
  run->pending_inputs.resize(truth.component_count());
  run->uplink_free = sim_.now();
  run->downlink_free = sim_.now();
  for (app::ComponentId v = 0; v < truth.component_count(); ++v)
    run->pending_inputs[v] = truth.in_flows(v).size();
  for (app::ComponentId v = 0; v < truth.component_count(); ++v)
    if (run->pending_inputs[v] == 0) par_component_ready(run, v);
}

void OffloadController::par_component_ready(std::shared_ptr<ParallelRun> run,
                                            app::ComponentId v) {
  if (run->finished) return;
  if (!run->plan->is_remote(v)) {
    if (run->device_busy) {
      run->local_ready.push_back(v);
    } else {
      par_start_local(std::move(run), v);
    }
    return;
  }
  // Remote components run concurrently on the platform.
  const auto fn = run->plan->function_for(v);
  NTCO_EXPECTS(fn.has_value());
  const TimePoint invoked = sim_.now();
  auto* controller = this;
  // Read the work before the call: the closure argument moves `run`, and
  // argument evaluation order is unspecified.
  const Cycles work = run->truth->component(v).work;
  platform_.invoke(*fn, work,
                   [controller, run = std::move(run), v,
                    invoked](const serverless::InvocationResult& r) mutable {
                     run->report.remote_compute += r.exec_time;
                     run->report.cloud_cost += r.cost;
                     run->report.waiting += r.finished - invoked;
                     ++run->report.remote_invocations;
                     if (r.cold_start) ++run->report.cold_starts;
                     controller->par_component_done(std::move(run), v);
                   });
}

void OffloadController::par_start_local(std::shared_ptr<ParallelRun> run,
                                        app::ComponentId v) {
  run->device_busy = true;
  const Cycles work = run->truth->component(v).work;
  const Duration exec = device_.exec_time(work);
  run->report.local_compute += exec;
  run->report.device_energy += device_.exec_energy(work);
  sim_.schedule_after(exec, [this, run = std::move(run), v]() mutable {
    run->device_busy = false;
    if (!run->local_ready.empty()) {
      const app::ComponentId next = run->local_ready.front();
      run->local_ready.pop_front();
      par_start_local(run, next);
    }
    par_component_done(std::move(run), v);
  });
}

void OffloadController::par_component_done(std::shared_ptr<ParallelRun> run,
                                           app::ComponentId v) {
  --run->remaining;
  for (const std::size_t fi : run->truth->out_flows(v))
    par_deliver_flow(run, fi);
  par_maybe_finish(run);
}

void OffloadController::par_deliver_flow(std::shared_ptr<ParallelRun> run,
                                         std::size_t flow) {
  // A failed run ignores stragglers; its caller may already have released
  // the plan.
  if (run->finished) return;
  const auto& f = run->truth->flow(flow);
  const bool from_remote = run->plan->is_remote(f.from);
  const bool to_remote = run->plan->is_remote(f.to);

  auto delivered = [this](std::shared_ptr<ParallelRun> r,
                          app::ComponentId to) {
    NTCO_EXPECTS(r->pending_inputs[to] > 0);
    if (--r->pending_inputs[to] == 0) par_component_ready(std::move(r), to);
  };

  if (from_remote == to_remote) {
    // Same side: in-process (local) or intra-region (remote), free.
    delivered(std::move(run), f.to);
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
    run->finished = true;
    run->report.failed = true;
    run->report.makespan = (sim_.now() + t) - run->begin;
    finish(*run);
    return;
  }
  TimePoint& direction_free = upload ? run->uplink_free : run->downlink_free;
  const TimePoint start = std::max(sim_.now(), direction_free);
  const TimePoint finish = start + t;
  direction_free = finish;
  if (!upload)
    run->report.cloud_cost +=
        run->plan->environment.egress_price_per_gb *
        (static_cast<double>(f.bytes.count_bytes()) / 1e9);

  const app::ComponentId to = f.to;
  sim_.schedule_at(finish,
                   [this, run = std::move(run), to, delivered]() mutable {
                     delivered(std::move(run), to);
                   });
}

void OffloadController::par_maybe_finish(
    const std::shared_ptr<ParallelRun>& run) {
  if (run->finished || run->remaining > 0) return;
  run->finished = true;
  run->report.makespan = sim_.now() - run->begin;
  // The UE idles whenever it is not computing; radio energy is accounted
  // separately on top (slight overlap double-count, documented).
  const Duration idle = run->report.makespan - run->report.local_compute;
  if (idle > Duration::zero())
    run->report.device_energy += device_.idle_energy(idle);
  finish(*run);
}

void OffloadController::step(std::shared_ptr<RunState> run) {
  if (run->next == run->order.size()) {
    run->report.makespan = sim_.now() - run->begin;
    finish(*run);
    return;
  }

  const app::ComponentId v = run->order[run->next++];
  const auto& g = *run->truth;
  const auto& plan = *run->plan;
  if (run->ran_remote.empty()) run->ran_remote.resize(g.component_count());

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
        finish(*run);
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
    sim_.schedule_after(transfer + exec,
                        [this, run = std::move(run)]() mutable {
                          step(std::move(run));
                        });
    return;
  }

  const auto fn_opt = plan.function_for(v);
  NTCO_EXPECTS(fn_opt.has_value());
  const serverless::FunctionId fn = *fn_opt;
  const Cycles work = g.component(v).work;
  sim_.schedule_after(transfer, [this, run = std::move(run), fn,
                                 work]() mutable {
    const TimePoint invoked = sim_.now();
    // Keep a raw pointer so we can move `run` into the completion callback.
    auto* controller = this;
    platform_.invoke(
        fn, work,
        [controller, run = std::move(run),
         invoked](const serverless::InvocationResult& r) mutable {
          const Duration waited = r.finished - invoked;
          run->report.waiting += waited;
          // The UE idles while the cloud computes.
          run->report.device_energy += controller->device_.idle_energy(waited);
          run->report.remote_compute += r.exec_time;
          run->report.cloud_cost += r.cost;
          ++run->report.remote_invocations;
          if (r.cold_start) ++run->report.cold_starts;
          controller->step(std::move(run));
        });
  });
}

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
