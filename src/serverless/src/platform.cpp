#include "ntco/serverless/platform.hpp"

#include <algorithm>
#include <cmath>

namespace ntco::serverless {

Platform::Platform(sim::Simulator& sim, PlatformConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.core_speed.is_zero())
    throw ConfigError("core_speed must be positive");
  if (cfg_.full_share_memory.is_zero())
    throw ConfigError("full_share_memory must be positive");
  if (cfg_.max_vcpus <= 0.0) throw ConfigError("max_vcpus must be positive");
  if (cfg_.min_memory > cfg_.max_memory)
    throw ConfigError("min_memory exceeds max_memory");
  if (cfg_.memory_quantum.is_zero())
    throw ConfigError("memory_quantum must be positive");
  if (cfg_.account_concurrency == 0)
    throw ConfigError("account_concurrency must be positive");
  validate_price_windows(cfg_.price_windows);
  if (cfg_.spot_price_multiplier <= 0.0 || cfg_.spot_price_multiplier > 1.0)
    throw ConfigError("spot_price_multiplier must lie in (0, 1]");
  if (cfg_.spot_mean_time_to_preempt.is_negative())
    throw ConfigError("spot_mean_time_to_preempt must be non-negative");
  provisioned_accrued_until_ = sim_.now();
}

FunctionId Platform::deploy(FunctionSpec spec) {
  if (spec.name.empty()) throw ConfigError("function name must be non-empty");
  if (spec.memory < cfg_.min_memory || spec.memory > cfg_.max_memory)
    throw ConfigError("function '" + spec.name +
                      "' memory outside provider limits");
  if (spec.memory.count_bytes() % cfg_.memory_quantum.count_bytes() != 0)
    throw ConfigError("function '" + spec.name +
                      "' memory not quantum-aligned; use quantize_memory()");
  if (spec.parallel_fraction < 0.0 || spec.parallel_fraction > 1.0)
    throw ConfigError("function '" + spec.name +
                      "' parallel_fraction outside [0, 1]");
  fns_.push_back(Function{std::move(spec), {}, 0, 0});
  return static_cast<FunctionId>(fns_.size() - 1);
}

void Platform::redeploy(FunctionId id, FunctionSpec spec) {
  NTCO_EXPECTS(id < fns_.size());
  if (spec.memory < cfg_.min_memory || spec.memory > cfg_.max_memory ||
      spec.memory.count_bytes() % cfg_.memory_quantum.count_bytes() != 0)
    throw ConfigError("redeploy of '" + spec.name + "': invalid memory");
  accrue_provisioned();
  Function& fn = fns_[id];
  // Invalidate every warm instance: next on-demand invocation is cold.
  for (const auto& inst : fn.idle)
    if (!inst.provisioned) sim_.cancel(inst.expiry_event);
  fn.idle.clear();
  fn.provisioned_total = 0;
  fn.spec = std::move(spec);
  // Provisioned capacity is re-established for the new version immediately
  // (the provider pre-initialises the new instances before cutover).
  const std::size_t target = fn.provisioned_target;
  fn.provisioned_target = 0;
  set_provisioned_concurrency(id, target);
}

void Platform::set_provisioned_concurrency(FunctionId id, std::size_t n) {
  NTCO_EXPECTS(id < fns_.size());
  accrue_provisioned();
  Function& fn = fns_[id];
  fn.provisioned_target = n;
  // Grow: create idle provisioned instances.
  while (fn.provisioned_total < n) {
    fn.idle.push_back(IdleInstance{next_instance_++, sim::kNoEvent, true});
    ++fn.provisioned_total;
  }
  // Shrink: retire idle provisioned instances now; busy ones retire on
  // completion (see finish_instance()).
  if (fn.provisioned_total > n) {
    auto it = fn.idle.begin();
    while (it != fn.idle.end() && fn.provisioned_total > n) {
      if (it->provisioned) {
        it = fn.idle.erase(it);
        --fn.provisioned_total;
      } else {
        ++it;
      }
    }
  }
}

void Platform::attach_observer(obs::TraceSink* trace,
                               obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.invocations = &metrics->counter("serverless.invocations");
    m_.cold_starts = &metrics->counter("serverless.cold_starts");
    m_.warm_reuses = &metrics->counter("serverless.warm_reuses");
    m_.throttled = &metrics->counter("serverless.throttled");
    m_.preemptions = &metrics->counter("serverless.preemptions");
    m_.queue_wait_ms = &metrics->summary("serverless.queue_wait_ms");
    m_.exec_ms = &metrics->summary("serverless.exec_ms");
    m_.init_ms = &metrics->summary("serverless.init_ms");
  }
}

InvocationId Platform::invoke(FunctionId id, Cycles work, Callback done,
                              Tier tier) {
  return enqueue(id, work, Duration::zero(), std::move(done), tier);
}

InvocationId Platform::resume(FunctionId id, Cycles work, Duration exec_credit,
                              Callback done, Tier tier) {
  NTCO_EXPECTS(!exec_credit.is_negative());
  return enqueue(id, work, exec_credit, std::move(done), tier);
}

// ntco-lint: hotpath begin
InvocationId Platform::enqueue(FunctionId id, Cycles work,
                               Duration exec_credit, Callback done,
                               Tier tier) {
  NTCO_EXPECTS(id < fns_.size());
  NTCO_EXPECTS(done != nullptr);
  ++stats_.invocations;
  if (m_.invocations) m_.invocations->add();
  if (trace_) {
    if (exec_credit.is_zero())
      obs::emit(trace_, sim_.now(), "faas.invoke",
                {{"fn", id},
                 {"work", work.value()},
                 {"tier", tier == Tier::Spot ? "spot" : "on_demand"}});
    else
      obs::emit(trace_, sim_.now(), "faas.resume",
                {{"fn", id},
                 {"work", work.value()},
                 {"credit", exec_credit},
                 {"tier", tier == Tier::Spot ? "spot" : "on_demand"}});
  }
  const InvocationId inv_id = next_invocation_++;
  PendingInvocation inv{
      inv_id, id, work, std::move(done), sim_.now(), tier, exec_credit};
  if (busy_ < cfg_.account_concurrency && queue_.empty()) {
    // pump() would admit it at once: skip the queue round trip.
    begin(std::move(inv));
    return inv_id;
  }
  ++stats_.throttled;
  if (m_.throttled) m_.throttled->add();
  if (trace_)
    obs::emit(trace_, sim_.now(), "faas.throttled",
              {{"fn", id}, {"queue_depth", queue_.size()}});
  queue_.push_back(std::move(inv));  // ntco-lint: allow(R6) throttled invocations only: the FIFO grows while the account concurrency limit is hit
  pump();
  return inv_id;
}
// ntco-lint: hotpath end

const FunctionSpec& Platform::spec(FunctionId id) const {
  NTCO_EXPECTS(id < fns_.size());
  return fns_[id].spec;
}

DataSize Platform::quantize_memory(DataSize requested) const {
  const auto q = cfg_.memory_quantum.count_bytes();
  auto b = requested.count_bytes();
  b = std::max(b, cfg_.min_memory.count_bytes());
  b = ((b + q - 1) / q) * q;  // round up to quantum
  b = std::min(b, cfg_.max_memory.count_bytes());
  return DataSize::bytes(b);
}

double Platform::cpu_share(DataSize memory) const {
  NTCO_EXPECTS(!memory.is_zero());
  const double share = static_cast<double>(memory.count_bytes()) /
                       static_cast<double>(cfg_.full_share_memory.count_bytes());
  return std::min(share, cfg_.max_vcpus);
}

Duration Platform::exec_time(DataSize memory, Cycles work,
                             double parallel_fraction) const {
  NTCO_EXPECTS(parallel_fraction >= 0.0 && parallel_fraction <= 1.0);
  const double share = cpu_share(memory);
  double speed_factor;
  if (share <= 1.0) {
    // Sub-vCPU configurations time-slice a single core: the function's
    // parallelism cannot help.
    speed_factor = share;
  } else {
    // Amdahl's law over `share` cores at full per-core speed.
    speed_factor =
        1.0 / ((1.0 - parallel_fraction) + parallel_fraction / share);
  }
  return work / (cfg_.core_speed * speed_factor);
}

Duration Platform::cold_start_time(DataSize image) const {
  return cfg_.cold_start_base + image / cfg_.image_install_rate;
}

double Platform::price_multiplier(TimePoint when) const {
  return price_multiplier_at(cfg_.price_windows, when);
}

namespace {

/// Execution price of `billed` at `memory`, scaled by the time-of-day
/// `multiplier` and the tier's `tier_factor`, plus the per-request fee.
Money tariff_cost(const PlatformConfig& cfg, DataSize memory, Duration billed,
                  double multiplier, double tier_factor) {
  NTCO_EXPECTS(!billed.is_negative());
  // Round the billed duration up to the billing quantum.
  const auto q = cfg.billing_quantum.count_micros();
  const auto us = (billed.count_micros() + q - 1) / q * q;
  const double gb_seconds = static_cast<double>(memory.count_bytes()) / 1e9 *
                            static_cast<double>(us) / 1e6;
  return cfg.price_per_gb_second * (gb_seconds * multiplier * tier_factor) +
         cfg.price_per_request;
}

}  // namespace

Money Platform::invocation_cost(DataSize memory, Duration billed,
                                TimePoint when, Tier tier) const {
  const double tier_factor =
      tier == Tier::Spot ? cfg_.spot_price_multiplier : 1.0;
  return tariff_cost(cfg_, memory, billed, price_multiplier(when),
                     tier_factor);
}

Money Platform::reference_cost(DataSize memory, Duration billed) const {
  return tariff_cost(cfg_, memory, billed, 1.0, 1.0);
}

void Platform::pump() {
  while (busy_ < cfg_.account_concurrency && !queue_.empty()) {
    PendingInvocation inv = std::move(queue_.front());
    queue_.pop_front();
    begin(std::move(inv));
  }
}

// ntco-lint: hotpath begin
void Platform::begin(PendingInvocation&& inv) {
  Function& fn = fns_[inv.fn];

  bool provisioned = false;
  bool cold = false;
  Duration init;

  if (!fn.idle.empty()) {
    // Prefer a provisioned instance; otherwise reuse most-recently-used
    // (LIFO), which maximises the chance older instances expire.
    auto it = std::find_if(fn.idle.rbegin(), fn.idle.rend(),
                           [](const IdleInstance& i) { return i.provisioned; });
    if (it == fn.idle.rend()) it = fn.idle.rbegin();
    provisioned = it->provisioned;
    if (!provisioned) sim_.cancel(it->expiry_event);
    fn.idle.erase(std::next(it).base());
    if (m_.warm_reuses) m_.warm_reuses->add();
    if (trace_)
      obs::emit(trace_, sim_.now(), "faas.warm_reuse",
                {{"fn", inv.fn}, {"provisioned", provisioned}});
  } else {
    cold = true;
    init = cold_start_time(fn.spec.image);
    ++stats_.cold_starts;
    if (m_.cold_starts) m_.cold_starts->add();
    if (trace_)
      obs::emit(trace_, sim_.now(), "faas.cold_start",
                {{"fn", inv.fn}, {"init", init}});
  }

  ++busy_;
  stats_.peak_concurrency = std::max(stats_.peak_concurrency, busy_);

  const Duration full_exec =
      exec_time(fn.spec.memory, inv.work, fn.spec.parallel_fraction);
  // Credit exec already performed by a checkpointed earlier run.
  const Duration planned = inv.exec_credit < full_exec
                               ? full_exec - inv.exec_credit
                               : Duration::zero();

  // Spot executions race an exponential preemption clock. A preempted
  // instance is torn down, so it neither returns to the warm pool nor
  // survives as provisioned capacity for this slot.
  Duration exec = planned;
  bool preempted = false;
  if (inv.tier == Tier::Spot && !cfg_.spot_mean_time_to_preempt.is_zero()) {
    const Duration survive = Duration::from_seconds(
        rng_.exponential(cfg_.spot_mean_time_to_preempt.to_seconds()));
    if (survive < planned) {
      exec = survive;
      preempted = true;
    }
  }

  // Ids only grow, so every entry lands at the end of running_.
  const InvocationId id = inv.id;
  RunningMap::iterator slot;
  if (spare_running_.empty()) {
    slot = running_.try_emplace(running_.end(), id);  // ntco-lint: allow(R6) node pool grows only past its high-water mark of running invocations; complete() recycles every node
  } else {
    RunningMap::node_type node = std::move(spare_running_.back());
    spare_running_.pop_back();
    node.key() = id;
    slot = running_.insert(running_.end(), std::move(node));  // ntco-lint: allow(R6) relinks a recycled node: no allocation
  }
  RunningInvocation& run = slot->second;
  run.fn = inv.fn;
  run.done = std::move(inv.done);
  run.submitted = inv.submitted;
  run.admission = sim_.now();
  run.init = init;
  run.planned_exec = planned;
  run.exec = exec;
  run.exec_credit = inv.exec_credit;
  run.cold = cold;
  run.provisioned = provisioned;
  run.preempted_by_clock = preempted;
  run.tier = inv.tier;
  run.completion =
      sim_.schedule_after(init + exec, [this, id] { complete(id, false); });
}

void Platform::complete(InvocationId id, bool forced) {
  const auto it = running_.find(id);
  NTCO_EXPECTS(it != running_.end());
  RunningMap::node_type node = running_.extract(it);
  RunningInvocation& run = node.mapped();
  if (forced) sim_.cancel(run.completion);

  const TimePoint now = sim_.now();
  Duration init = run.init;
  Duration exec = run.exec;
  bool preempted = run.preempted_by_clock;
  if (forced) {
    // Truncate to what actually ran: init completes first, then exec.
    const Duration elapsed = now - run.admission;
    init = std::min(init, elapsed);
    exec = std::max(Duration::zero(), std::min(elapsed - init, run.exec));
    preempted = true;
  }
  const FunctionId fn_id = run.fn;
  const bool cold = run.cold;
  const bool provisioned = run.provisioned;
  const Tier tier = run.tier;

  InvocationResult r;
  r.submitted = run.submitted;
  r.started = run.admission + init;
  r.finished = now;
  r.cold_start = cold;
  r.preempted = preempted;
  r.tier = tier;
  r.queue_wait = run.admission - run.submitted;
  r.init_time = init;
  r.exec_time = exec;
  r.exec_credit = run.exec_credit;
  r.cost = invocation_cost(fns_[fn_id].spec.memory, exec, r.started, tier);

  stats_.total_exec += exec;
  stats_.total_init += init;
  stats_.exec_cost += r.cost - cfg_.price_per_request;
  stats_.request_cost += cfg_.price_per_request;
  if (preempted) ++stats_.preemptions;

  if (m_.exec_ms) m_.exec_ms->add(exec.to_millis());
  if (m_.init_ms) m_.init_ms->add(init.to_millis());
  if (m_.queue_wait_ms) m_.queue_wait_ms->add(r.queue_wait.to_millis());
  if (preempted && m_.preemptions) m_.preemptions->add();
  if (trace_) {
    if (preempted)
      obs::emit(trace_, sim_.now(), "faas.preempted",
                {{"fn", fn_id}, {"exec", exec}, {"forced", forced}});
    obs::emit(trace_, sim_.now(), "faas.complete",
              {{"fn", fn_id},
               {"exec", exec},
               {"queue_wait", r.queue_wait},
               {"cold", cold},
               {"cost", r.cost}});
  }

  if (preempted) {
    // Torn down: release concurrency without returning an instance.
    NTCO_EXPECTS(busy_ > 0);
    --busy_;
    if (provisioned) {
      Function& f = fns_[fn_id];
      if (f.provisioned_total > 0) --f.provisioned_total;
      // Re-establish the provisioned target with a fresh instance.
      const std::size_t target = f.provisioned_target;
      f.provisioned_target = 0;
      set_provisioned_concurrency(fn_id, target);
    }
  } else {
    finish_instance(fn_id, provisioned);
  }
  // Recycle the node before the callback runs: an invoke() from inside it
  // reuses the node instead of allocating.
  Callback done = std::move(run.done);
  spare_running_.push_back(std::move(node));  // ntco-lint: allow(R6) grows only past the high-water mark of running invocations; begin() takes the nodes back
  done(r);
  pump();
}
// ntco-lint: hotpath end

bool Platform::checkpoint_preempt(InvocationId id) {
  // Still throttled: remove from the queue and complete with zero exec.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    PendingInvocation inv = std::move(*it);
    queue_.erase(it);
    if (trace_)
      obs::emit(trace_, sim_.now(), "faas.checkpoint",
                {{"fn", inv.fn}, {"queued", true}});
    InvocationResult r;
    r.submitted = inv.submitted;
    r.started = sim_.now();
    r.finished = sim_.now();
    r.preempted = true;
    r.tier = inv.tier;
    r.queue_wait = sim_.now() - inv.submitted;
    r.exec_credit = inv.exec_credit;
    inv.done(r);
    pump();
    return true;
  }
  const auto it = running_.find(id);
  if (it == running_.end()) return false;
  if (trace_)
    obs::emit(trace_, sim_.now(), "faas.checkpoint",
              {{"fn", it->second.fn}, {"queued", false}});
  complete(id, /*forced=*/true);
  return true;
}

std::optional<InFlightStatus> Platform::in_flight(InvocationId id) const {
  for (const auto& p : queue_) {
    if (p.id != id) continue;
    const Function& fn = fns_[p.fn];
    const Duration full =
        exec_time(fn.spec.memory, p.work, fn.spec.parallel_fraction);
    const Duration planned =
        p.exec_credit < full ? full - p.exec_credit : Duration::zero();
    return InFlightStatus{false, Duration::zero(), planned};
  }
  const auto it = running_.find(id);
  if (it == running_.end()) return std::nullopt;
  const RunningInvocation& run = it->second;
  const Duration elapsed = sim_.now() - run.admission;
  const Duration consumed = std::max(
      Duration::zero(), std::min(elapsed - run.init, run.planned_exec));
  return InFlightStatus{true, consumed, run.planned_exec - consumed};
}

// ntco-lint: hotpath begin
void Platform::finish_instance(FunctionId fn_id, bool provisioned) {
  NTCO_EXPECTS(busy_ > 0);
  --busy_;
  Function& fn = fns_[fn_id];
  if (provisioned && fn.provisioned_total > fn.provisioned_target) {
    --fn.provisioned_total;  // retire excess provisioned capacity
    return;
  }
  const std::uint64_t instance_id = next_instance_++;
  IdleInstance inst{instance_id, sim::kNoEvent, provisioned};
  // An on-demand instance stays warm for the keep-alive window.
  if (!provisioned)
    inst.expiry_event =
        sim_.schedule_after(cfg_.keep_alive, [this, fn_id, instance_id] {
          auto& idle = fns_[fn_id].idle;
          const auto it = std::find_if(idle.begin(), idle.end(),
                                       [&](const IdleInstance& i) {
                                         return i.instance_id == instance_id;
                                       });
          if (it != idle.end()) idle.erase(it);
        });
  fn.idle.push_back(inst);  // ntco-lint: allow(R6) the warm pool keeps its capacity; it grows only past the function's high-water mark of idle instances
}
// ntco-lint: hotpath end

void Platform::accrue_provisioned() const {
  const TimePoint now = sim_.now();
  const Duration elapsed = now - provisioned_accrued_until_;
  if (elapsed > Duration::zero()) {
    const double gb_seconds = provisioned_gb() * elapsed.to_seconds();
    stats_.provisioned_cost +=
        cfg_.provisioned_price_per_gb_second * gb_seconds;
  }
  provisioned_accrued_until_ = now;
}

double Platform::provisioned_gb() const {
  double gb = 0.0;
  for (const auto& fn : fns_)
    gb += static_cast<double>(fn.provisioned_total) *
          static_cast<double>(fn.spec.memory.count_bytes()) / 1e9;
  return gb;
}

std::size_t Platform::warm_count(FunctionId id) const {
  NTCO_EXPECTS(id < fns_.size());
  return fns_[id].idle.size();
}

PlatformStats Platform::stats() const {
  accrue_provisioned();
  return stats_;
}

Money Platform::total_cost() const {
  accrue_provisioned();
  return stats_.exec_cost + stats_.request_cost + stats_.provisioned_cost;
}

}  // namespace ntco::serverless
