#include "ntco/broker/plan_cache.hpp"

#include <algorithm>
#include <cmath>

#include "ntco/common/contracts.hpp"

namespace ntco::broker {

namespace {

/// Signed log2 bucket of a strictly positive quantity; values at or below
/// zero collapse into the lowest bucket rather than producing -inf.
int log2_bucket(double v) {
  if (v <= 1e-9) return -64;
  return static_cast<int>(std::llround(std::log2(v)));
}

}  // namespace

PlanKey quantize(const DecisionContext& ctx, const PlanCacheConfig& cfg) {
  NTCO_EXPECTS(cfg.battery_buckets > 0);
  NTCO_EXPECTS(cfg.hours_per_window > 0);
  // A width that does not divide 24 would leave a ragged final window
  // (5 h windows -> window 4 spans only 4 h) whose thinner population
  // skews hit rates across midnight; reject it outright.
  NTCO_EXPECTS(24 % cfg.hours_per_window == 0);
  PlanKey key;
  key.workload = ctx.workload;
  key.bw_bucket = log2_bucket(ctx.uplink.to_mbps());
  key.rtt_bucket = log2_bucket(ctx.rtt.to_millis());
  const int b = static_cast<int>(ctx.battery *
                                 static_cast<double>(cfg.battery_buckets));
  key.battery_bucket = std::clamp(b, 0, cfg.battery_buckets - 1);
  key.window = ((ctx.hour % 24) + 24) % 24 / cfg.hours_per_window;
  return key;
}

PlanCache::PlanCache(PlanCacheConfig cfg) : cfg_(cfg) {
  NTCO_EXPECTS(cfg_.capacity > 0);
  NTCO_EXPECTS(cfg_.battery_buckets > 0);
  NTCO_EXPECTS(cfg_.hours_per_window > 0);
  NTCO_EXPECTS(24 % cfg_.hours_per_window == 0);
  NTCO_EXPECTS(cfg_.hysteresis >= 0.0);
  NTCO_EXPECTS(cfg_.battery_hysteresis >= 0.0);
}

void PlanCache::attach_observer(obs::TraceSink* trace,
                                obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.hits = &metrics->counter("broker.cache.hits");
    m_.hysteresis_hits = &metrics->counter("broker.cache.hysteresis_hits");
    m_.misses = &metrics->counter("broker.cache.misses");
    m_.evictions = &metrics->counter("broker.cache.evictions");
    m_.expiries = &metrics->counter("broker.cache.expiries");
  }
}

bool PlanCache::expired(const Entry& e, TimePoint now) const {
  return now - e.inserted > cfg_.ttl;
}

bool PlanCache::within_hysteresis(const DecisionContext& ctx,
                                  const DecisionContext& planned) const {
  const auto rel = [](double a, double b) {
    const double base = std::max(std::abs(b), 1e-9);
    return std::abs(a - b) / base;
  };
  // Bandwidth and RTT drift are judged *relatively* against `hysteresis`;
  // battery is an absolute state-of-charge delta with its own knob —
  // conflating them under one threshold silently mixed "5% slower link"
  // with "5 percentage points less charge".
  return rel(ctx.uplink.to_mbps(), planned.uplink.to_mbps()) <=
             cfg_.hysteresis &&
         rel(ctx.rtt.to_millis(), planned.rtt.to_millis()) <=
             cfg_.hysteresis &&
         std::abs(ctx.battery - planned.battery) <= cfg_.battery_hysteresis;
}

std::shared_ptr<const core::DeploymentPlan> PlanCache::lookup(
    const DecisionContext& ctx, TimePoint now) {
  const PlanKey exact = quantize(ctx, cfg_);

  // Probes a single key; erases (and counts) an expired occupant. Returns
  // the live entry or nullptr.
  const auto probe = [&](const PlanKey& key) -> Entry* {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    if (expired(it->second, now)) {
      entries_.erase(it);
      ++stats_.expiries;
      if (m_.expiries) m_.expiries->add();
      return nullptr;
    }
    return &it->second;
  };

  if (Entry* e = probe(exact); e != nullptr) {
    e->last_used = ++tick_;
    ++stats_.hits;
    if (m_.hits) m_.hits->add();
    if (trace_)
      obs::emit(trace_, now, "broker.plan_cache_hit",
                {{"workload", std::string_view(ctx.workload)},
                 {"hysteresis", false}});
    return e->plan;
  }

  // Bucket-boundary hysteresis: a context that just crossed into an empty
  // neighbouring bucket may still be close (in raw terms) to the plan next
  // door. Probe the six axis neighbours in a fixed order and reuse the
  // first whose planning context is within the drift envelope.
  const PlanKey neighbours[6] = {
      {exact.workload, exact.bw_bucket - 1, exact.rtt_bucket,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket + 1, exact.rtt_bucket,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket - 1,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket + 1,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket,
       exact.battery_bucket - 1, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket,
       exact.battery_bucket + 1, exact.window},
  };
  for (const PlanKey& key : neighbours) {
    Entry* e = probe(key);
    if (e == nullptr || !within_hysteresis(ctx, e->planned)) continue;
    e->last_used = ++tick_;
    ++stats_.hysteresis_hits;
    if (m_.hysteresis_hits) m_.hysteresis_hits->add();
    if (trace_)
      obs::emit(trace_, now, "broker.plan_cache_hit",
                {{"workload", std::string_view(ctx.workload)},
                 {"hysteresis", true}});
    return e->plan;
  }

  ++stats_.misses;
  if (m_.misses) m_.misses->add();
  if (trace_)
    obs::emit(trace_, now, "broker.plan_cache_miss",
              {{"workload", std::string_view(ctx.workload)}});
  return nullptr;
}

void PlanCache::insert(const DecisionContext& ctx,
                       std::shared_ptr<const core::DeploymentPlan> plan,
                       TimePoint now) {
  NTCO_EXPECTS(plan != nullptr);
  const PlanKey key = quantize(ctx, cfg_);
  Entry& e = entries_[key];
  e.plan = std::move(plan);
  e.planned = ctx;
  e.inserted = now;
  e.last_used = ++tick_;
  if (entries_.size() > cfg_.capacity) evict_lru();
}

void PlanCache::evict_lru() {
  // O(n) sorted-map scan: capacity is small (hundreds) and eviction only
  // runs on insert-over-capacity, so the simplicity beats an intrusive
  // LRU list. Ties cannot happen (ticks are unique).
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (it->second.last_used < victim->second.last_used) victim = it;
  entries_.erase(victim);
  ++stats_.evictions;
  if (m_.evictions) m_.evictions->add();
}

}  // namespace ntco::broker
