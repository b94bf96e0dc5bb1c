// The repo benchmark program: replays one named serving workload through
// the real broker stack for a fixed wall-clock budget and prints one JSON
// object per repeat.
//
//   ntco_perfbench        --workload <name> --seed <n> --seconds <s>
//   ntco_perfbench_traced --workload <name> --seed <n> --seconds <s>
//
// Each repeat has two phases. Set-up builds the task graphs and draws
// every shard's arrival stream and user population from the seed
// (Rng::stream(seed, shard), the stream fleet::Replicator would hand the
// shard). Serving runs the shard bodies (World + Broker construction,
// one sim.run() per shard) through fleet::Replicator and merges them in
// shard order. Repeats continue until --seconds have passed (at least
// kMinRepeats); run.py takes medians across them.
//
// Every number is labelled by kind. Host numbers (wall time, memory,
// allocation counts) describe this process; modelled numbers (cost,
// deadlines, cache hits, events) are results of the simulation and are
// identical on every repeat and at every thread count. The traced build
// adds spans around the public calls into each layer, all taken from this
// file, plus a counting operator new; nothing under src/ is instrumented.


#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ntco/app/arrivals.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/device/device.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/net/path.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace {
constexpr bool kTraced = PERFBENCH_TRACED != 0;
}  // namespace

#if PERFBENCH_TRACED
// Counting allocator for the traced build. Each thread counts its own
// calls; a shard body runs on one thread, so its deltas are exact.
namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocs;
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* operator new(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  std::size_t a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  n = n == 0 ? a : (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// GCC flags free() in a replacement delete as a mismatch; it pairs with
// the malloc()/aligned_alloc() above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
#endif

using namespace ntco;

namespace {

std::uint64_t allocs_now() {
#if PERFBENCH_TRACED
  return t_allocs;
#else
  return 0;
#endif
}

using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

constexpr int kMinRepeats = 3;
constexpr double kMaxSeconds = 120.0;  // stop repeating past this, always

// ---------------------------------------------------------------------------
// Workloads

enum class Shape : std::uint8_t { Diurnal, Replan, Vehicular };

struct Workload {
  const char* name;
  Shape shape;
  std::size_t shards;
  std::size_t threads;
};

// diurnal_day     F16: 24 h residential MMPP day per shard, plan cache
//                 (6 h TTL), CheapestWindow deferral, batching, x0.55
//                 overnight. The cache-hit path and batching do the work.
// replan_burst    F12 no-cache: two-minute evening burst of 1024 users per
//                 shard, every admitted request runs the full prepare().
// vehicular_churn F15 two-stage: 15 min of roadside-cell traffic on 5G,
//                 hard deadline = link residence. Sheds and the execution
//                 path dominate.
// *_t4            the same inputs at 4 threads, where fleet::Replicator
//                 runs the shards on the dataplane engine. Single-thread
//                 runs are the clean per-layer view; the 4-thread runs
//                 spread less on a shared host, so they are the gated set.
constexpr Workload kWorkloads[] = {
    {"diurnal_day", Shape::Diurnal, 128, 1},
    {"replan_burst", Shape::Replan, 50, 1},
    {"vehicular_churn", Shape::Vehicular, 96, 1},
    {"diurnal_day_t4", Shape::Diurnal, 128, 4},
    {"replan_burst_t4", Shape::Replan, 50, 4},
    {"vehicular_churn_t4", Shape::Vehicular, 96, 4},
};

constexpr int kReplanShardUsers = 1024;

// ---------------------------------------------------------------------------
// Inputs (set-up phase)

/// One offered request: when it arrives and who offers it.
struct Request {
  TimePoint at;
  std::size_t workload = 0;
  Duration slack;
  double battery = 1.0;
  double bw_scale = 1.0;
};

struct ShardInput {
  std::vector<Request> requests;  // in scheduling order
  std::int64_t arrival_gen_ns = 0;  // traced: arrival-stream call
};

/// 10% tight tail (minutes); the rest tolerate 6-12 h (F12/F16 draw).
Duration draw_slack(Rng& rng) {
  return rng.uniform(0.0, 1.0) < 0.1
             ? Duration::minutes(2) + Duration::minutes(6) * rng.uniform(0.0, 1.0)
             : Duration::hours(6) + Duration::hours(6) * rng.uniform(0.0, 1.0);
}

std::int64_t workload_index(Rng& rng, std::size_t graphs) {
  return rng.uniform_int(0, static_cast<std::int64_t>(graphs) - 1);
}

ShardInput diurnal_input(Rng& rng, std::size_t graphs) {
  ShardInput in;
  app::MmppConfig acfg;
  acfg.mean_rate_per_second = 1100.0 / (24.0 * 3600.0);  // ~1.1k users/day
  acfg.profile = app::DiurnalProfile::residential_evening();
  acfg.burst_multiplier = 3.0;
  const auto t0 = Clock::now();
  const auto arrivals = app::mmpp_arrivals(acfg, TimePoint::origin(),
                                           Duration::hours(24), rng);
  if (kTraced) in.arrival_gen_ns = ns_since(t0);
  in.requests.reserve(arrivals.size());
  for (const TimePoint at : arrivals) {
    Request r;
    r.at = at;
    r.workload = static_cast<std::size_t>(workload_index(rng, graphs));
    r.slack = draw_slack(rng);
    r.battery = rng.uniform(0.05, 1.0);
    r.bw_scale = std::exp2(rng.uniform(-2.0, 2.0));
    in.requests.push_back(r);
  }
  return in;
}

ShardInput replan_input(Rng& rng, std::size_t graphs) {
  // F12 draws each user's release offset inside the population draw, so
  // the whole draw is this workload's arrival generation.
  ShardInput in;
  const TimePoint t0 = TimePoint::at(Duration::hours(20));
  const auto c0 = Clock::now();
  in.requests.reserve(kReplanShardUsers);
  for (int u = 0; u < kReplanShardUsers; ++u) {
    Request r;
    r.workload = static_cast<std::size_t>(workload_index(rng, graphs));
    r.at = t0 + Duration::minutes(2) * rng.uniform(0.0, 1.0);
    r.slack = draw_slack(rng);
    r.battery = rng.uniform(0.05, 1.0);
    r.bw_scale = std::exp2(rng.uniform(-2.0, 2.0));
    in.requests.push_back(r);
  }
  if (kTraced) in.arrival_gen_ns = ns_since(c0);
  return in;
}

ShardInput vehicular_input(Rng& rng, std::size_t graphs) {
  ShardInput in;
  app::VehicularConfig vcfg;  // 0.5 veh/s, 45 s residence, 0.2 req/s
  const auto t0 = Clock::now();
  const auto sessions =
      app::vehicular_sessions(vcfg, TimePoint::at(Duration::hours(17)),
                              Duration::minutes(15), rng);
  if (kTraced) in.arrival_gen_ns = ns_since(t0);
  // Each vehicle runs one app for its whole pass through the cell.
  std::vector<std::size_t> vehicle_workload;
  vehicle_workload.reserve(sessions.size());
  for (std::size_t v = 0; v < sessions.size(); ++v)
    vehicle_workload.push_back(
        static_cast<std::size_t>(workload_index(rng, graphs)));
  for (const app::VehicleSession& s : sessions) {
    for (const app::VehicleRequest& vr : s.requests) {
      Request r;
      r.at = vr.at;
      r.workload = vehicle_workload[s.vehicle];
      r.slack = vr.residence_left;  // hard deadline: link residence
      r.battery = vr.battery;
      r.bw_scale = vr.bw_scale;
      in.requests.push_back(r);
    }
  }
  return in;
}

ShardInput make_input(Shape shape, Rng& rng, std::size_t graphs) {
  switch (shape) {
    case Shape::Diurnal:
      return diurnal_input(rng, graphs);
    case Shape::Replan:
      return replan_input(rng, graphs);
    case Shape::Vehicular:
      return vehicular_input(rng, graphs);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Results

/// Modelled statistics of one shard; merged by summation in shard order.
struct Modelled {
  std::uint64_t users = 0;
  std::uint64_t outcomes = 0;  // serve callbacks fired
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_met = 0;  // completed by released + slack
  std::uint64_t admitted = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t cache_hits = 0;  // exact + hysteresis
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t batches = 0;
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t fast_serves = 0;
  std::uint64_t resolves = 0;
  std::uint64_t invocations = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t events = 0;
  std::int64_t cost_micro_usd = 0;

  template <class F>
  void for_each(F&& f) const {
    f("users", users);
    f("outcomes", outcomes);
    f("completed", completed);
    f("failed", failed);
    f("shed", shed);
    f("deadline_met", deadline_met);
    f("admitted", admitted);
    f("deferrals", deferrals);
    f("cache_hits", cache_hits);
    f("cache_misses", cache_misses);
    f("cache_evictions", cache_evictions);
    f("batches", batches);
    f("jobs_dispatched", jobs_dispatched);
    f("fast_serves", fast_serves);
    f("resolves", resolves);
    f("invocations", invocations);
    f("cold_starts", cold_starts);
    f("events", events);
    f("cost_micro_usd", static_cast<std::uint64_t>(cost_micro_usd));
  }

  void merge(const Modelled& o) {
    users += o.users;
    outcomes += o.outcomes;
    completed += o.completed;
    failed += o.failed;
    shed += o.shed;
    deadline_met += o.deadline_met;
    admitted += o.admitted;
    deferrals += o.deferrals;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    batches += o.batches;
    jobs_dispatched += o.jobs_dispatched;
    fast_serves += o.fast_serves;
    resolves += o.resolves;
    invocations += o.invocations;
    cold_starts += o.cold_starts;
    events += o.events;
    cost_micro_usd += o.cost_micro_usd;
  }

  /// FNV-1a over every field in declaration order.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ULL;
    for_each([&h](const char*, std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFFU;
        h *= 1099511628211ULL;
      }
    });
    return h;
  }
};

/// Host-side spans and counts of one shard (traced build only).
struct Spans {
  std::vector<std::int64_t> serve_ns;   // every Broker::serve call
  std::vector<std::int64_t> solve_ns;   // every exact partitioner solve
  std::vector<std::int64_t> shard_ns;   // shard body wall
  std::int64_t serve_total_ns = 0;
  std::int64_t hit_ns = 0, plan_self_ns = 0, shed_ns = 0, defer_ns = 0;
  std::uint64_t hit_calls = 0, plan_calls = 0, shed_calls = 0, defer_calls = 0;
  std::int64_t partition_ns = 0;  // exact + heuristic, anywhere
  std::uint64_t prepares = 0;     // exact + heuristic solves, anywhere
  std::int64_t run_ns = 0;
  std::int64_t outside_solve_ns = 0;  // solves in run() outside serve()
  std::int64_t shard_setup_ns = 0;
  std::int64_t merge_ns = 0;
  std::uint64_t merge_allocs = 0;
  std::uint64_t shard_allocs = 0;
  std::uint64_t serve_allocs = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t outside_solve_allocs = 0;

  // State of the span in progress.
  bool in_serve = false;
  std::int64_t serve_child_ns = 0;

  void merge(const Spans& o) {
    serve_ns.insert(serve_ns.end(), o.serve_ns.begin(), o.serve_ns.end());
    solve_ns.insert(solve_ns.end(), o.solve_ns.begin(), o.solve_ns.end());
    shard_ns.insert(shard_ns.end(), o.shard_ns.begin(), o.shard_ns.end());
    serve_total_ns += o.serve_total_ns;
    hit_ns += o.hit_ns;
    plan_self_ns += o.plan_self_ns;
    shed_ns += o.shed_ns;
    defer_ns += o.defer_ns;
    hit_calls += o.hit_calls;
    plan_calls += o.plan_calls;
    shed_calls += o.shed_calls;
    defer_calls += o.defer_calls;
    partition_ns += o.partition_ns;
    prepares += o.prepares;
    run_ns += o.run_ns;
    outside_solve_ns += o.outside_solve_ns;
    shard_setup_ns += o.shard_setup_ns;
    shard_allocs += o.shard_allocs;
    serve_allocs += o.serve_allocs;
    run_allocs += o.run_allocs;
    outside_solve_allocs += o.outside_solve_allocs;
  }
};

struct ShardResult {
  Modelled m;
  Spans s;
  std::string error;  // first failed check, empty if all held
};

// ---------------------------------------------------------------------------
// Serving phase

/// Bench-owned decorator: times each solve of the wrapped partitioner and
/// returns its plan unchanged.
class TimedPartitioner final : public partition::Partitioner {
 public:
  TimedPartitioner(const partition::Partitioner& inner, Spans& spans,
                   bool exact)
      : inner_(inner), spans_(spans), exact_(exact) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] partition::Partition plan(
      const partition::CostModel& model) const override {
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    partition::Partition p = inner_.plan(model);
    const std::int64_t dt = ns_since(t0);
    if (exact_) spans_.solve_ns.push_back(dt);
    spans_.partition_ns += dt;
    ++spans_.prepares;
    if (spans_.in_serve) {
      spans_.serve_child_ns += dt;
    } else {
      spans_.outside_solve_ns += dt;
      spans_.outside_solve_allocs += allocs_now() - a0;
    }
    return p;
  }

 private:
  const partition::Partitioner& inner_;
  Spans& spans_;
  bool exact_;
};

/// One shard's simulated world (the F-benches' bench::World).
struct World {
  sim::Simulator sim;
  serverless::Platform cloud;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;

  World(net::TechProfile tech, serverless::PlatformConfig pcfg)
      : cloud(sim, std::move(pcfg)),
        ue(device::budget_phone()),
        path(net::make_fixed_path(tech)),
        controller(sim, cloud, ue, path, controller_config()) {}

  static core::ControllerConfig controller_config() {
    core::ControllerConfig cfg;
    cfg.objective = partition::Objective::non_time_critical();
    return cfg;
  }
};

broker::BrokerConfig broker_config(Shape shape) {
  broker::BrokerConfig b;
  switch (shape) {
    case Shape::Diurnal:  // F16
      b.cache.ttl = Duration::hours(6);
      b.admission.rate_per_second = 0.05;
      b.admission.burst = 8.0;
      b.admission.min_defer = Duration::seconds(30);
      b.defer.policy = sched::Policy::CheapestWindow;
      break;
    case Shape::Replan:  // F12 nocache
      b.admission.rate_per_second = 2.0;
      b.admission.burst = 4.0;
      b.admission.min_defer = Duration::seconds(5);
      b.cache_enabled = false;
      b.batching_enabled = false;
      b.defer.policy = sched::Policy::Immediate;
      break;
    case Shape::Vehicular:  // F15 twostage
      b.admission.rate_per_second = 8.0;
      b.admission.burst = 16.0;
      b.admission.min_defer = Duration::seconds(1);
      b.batching_enabled = false;
      b.defer.policy = sched::Policy::Immediate;
      b.two_stage_enabled = true;
      break;
  }
  return b;
}

serverless::PlatformConfig platform_config(Shape shape) {
  serverless::PlatformConfig p;
  if (shape != Shape::Vehicular) p.price_windows = {{22, 6, 0.55}};
  return p;
}

class ShardRun {
 public:
  ShardRun(Shape shape, const std::vector<app::TaskGraph>& graphs,
           ShardResult& out)
      : graphs_(graphs),
        out_(out),
        world_(shape == Shape::Vehicular ? net::profile_5g()
                                         : net::profile_wifi(),
               platform_config(shape)),
        exact_(mincut_, out.s, /*exact=*/true),
        heuristic_(all_remote_, out.s, /*exact=*/false),
        broker_(world_.sim, world_.cloud, world_.controller,
                kTraced ? static_cast<const partition::Partitioner&>(exact_)
                        : mincut_,
                traced_config(broker_config(shape))) {}

  void run(const ShardInput& in) {
    for (const Request& r : in.requests)
      world_.sim.schedule_at(r.at, [this, &r] { serve(r); });
    out_.m.users = in.requests.size();
    if (kTraced) {  // keep the span buffers out of the allocation counts
      out_.s.serve_ns.reserve(in.requests.size());
      out_.s.solve_ns.reserve(in.requests.size());
    }

    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    const std::size_t events = world_.sim.run();
    if (kTraced) {
      out_.s.run_ns = ns_since(t0);
      out_.s.run_allocs = allocs_now() - a0;
    }
    collect(events);
  }

 private:
  broker::BrokerConfig traced_config(broker::BrokerConfig cfg) {
    // The built-in stage-1 rule is a RemoteAllPartitioner too; passing a
    // timed one changes no decision, only makes the solve visible.
    if (kTraced && cfg.two_stage_enabled)
      cfg.heuristic_partitioner = &heuristic_;
    return cfg;
  }

  void serve(const Request& r) {
    broker::ServeRequest req;
    req.app = &graphs_[r.workload];
    req.slack = r.slack;
    req.battery = r.battery;
    req.bandwidth_scale = r.bw_scale;
    auto done = [this, slack = r.slack](const broker::ServeOutcome& o) {
      ++out_.m.outcomes;
      if (o.status == broker::ServeStatus::Completed &&
          o.finished <= o.released + slack)
        ++out_.m.deadline_met;
    };
    if (!kTraced) {
      broker_.serve(req, done);
      return;
    }
    Spans& s = out_.s;
    const broker::PlanCacheStats& cs = broker_.cache().stats();
    const std::uint64_t hits0 = cs.hits + cs.hysteresis_hits;
    const std::uint64_t shed0 = broker_.stats().shed;
    const std::uint64_t defer0 = broker_.admission().stats().deferrals;
    s.in_serve = true;
    s.serve_child_ns = 0;
    const std::uint64_t a0 = allocs_now();
    const auto t0 = Clock::now();
    broker_.serve(req, done);
    const std::int64_t dt = ns_since(t0);
    s.serve_allocs += allocs_now() - a0;
    s.in_serve = false;
    s.serve_ns.push_back(dt);
    s.serve_total_ns += dt;
    if (broker_.stats().shed != shed0) {
      s.shed_ns += dt;
      ++s.shed_calls;
    } else if (broker_.admission().stats().deferrals != defer0) {
      s.defer_ns += dt;
      ++s.defer_calls;
    } else if (cs.hits + cs.hysteresis_hits != hits0) {
      s.hit_ns += dt;
      ++s.hit_calls;
    } else {  // admitted and planned (exact, or the stage-1 heuristic)
      s.plan_self_ns += dt - s.serve_child_ns;
      ++s.plan_calls;
    }
  }

  void collect(std::size_t events) {
    Modelled& m = out_.m;
    const broker::BrokerStats& bs = broker_.stats();
    const broker::AdmissionStats& as = broker_.admission().stats();
    const broker::PlanCacheStats& cs = broker_.cache().stats();
    const serverless::PlatformStats ps = world_.cloud.stats();
    m.completed = bs.completed;
    m.failed = bs.failed;
    m.shed = bs.shed;
    m.admitted = as.admitted;
    m.deferrals = as.deferrals;
    m.cache_hits = cs.hits + cs.hysteresis_hits;
    m.cache_misses = cs.misses;
    m.cache_evictions = cs.evictions;
    m.batches = broker_.dispatcher().stats().batches;
    m.jobs_dispatched = broker_.dispatcher().stats().jobs_dispatched;
    m.fast_serves = broker_.twostage().fast_serves;
    m.resolves = broker_.twostage().resolves;
    m.invocations = ps.invocations;
    m.cold_starts = ps.cold_starts;
    m.events = events;
    m.cost_micro_usd = world_.cloud.total_cost().count_micro_usd();

    // Conservation checks: every request accounted for exactly once,
    // nothing left waiting.
    auto fail = [this](const char* what) {
      if (out_.error.empty()) out_.error = what;
    };
    if (bs.requests != m.users) fail("broker requests != offered");
    if (bs.requests != bs.completed + bs.failed + bs.shed)
      fail("requests != completed + failed + shed");
    if (m.outcomes != m.users) fail("outcome callbacks != offered");
    if (as.deferred_outstanding != 0) fail("deferred_outstanding != 0");
    if (world_.sim.pending() != 0) fail("sim.pending() != 0 after run()");
    if (m.deadline_met > m.completed) fail("deadline_met > completed");
  }

  const std::vector<app::TaskGraph>& graphs_;
  ShardResult& out_;
  World world_;
  partition::MinCutPartitioner mincut_;
  partition::RemoteAllPartitioner all_remote_;
  TimedPartitioner exact_;
  TimedPartitioner heuristic_;
  broker::Broker broker_;
};

ShardResult run_shard(Shape shape, const std::vector<app::TaskGraph>& graphs,
                      const ShardInput& in) {
  ShardResult out;
  const std::uint64_t a0 = allocs_now();
  const auto t0 = Clock::now();
  ShardRun shard(shape, graphs, out);
  if (kTraced) out.s.shard_setup_ns = ns_since(t0);
  shard.run(in);
  if (kTraced) {
    out.s.shard_ns.push_back(ns_since(t0));
    out.s.shard_allocs = allocs_now() - a0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return static_cast<double>(v[std::min(i, v.size() - 1)]);
}

class JsonLine {
 public:
  void num(const char* key, double v) {
    sep();
    std::printf("\"%s\":%.17g", key, std::isfinite(v) ? v : 0.0);
  }
  void count(const char* key, std::uint64_t v) {
    sep();
    std::printf("\"%s\":%llu", key, static_cast<unsigned long long>(v));
  }
  void str(const char* key, std::string_view v) {
    sep();
    std::printf("\"%s\":\"", key);
    for (const char c : v)
      std::printf(c == '"' || c == '\\' ? "\\%c" : "%c", c);
    std::printf("\"");
  }
  void open(const char* key) {
    sep();
    std::printf("\"%s\":{", key);
    first_ = true;
  }
  void close() {
    std::printf("}");
    first_ = false;
  }
  void begin() {
    std::printf("{");
    first_ = true;
  }
  void end() {
    std::printf("}\n");
    std::fflush(stdout);
  }

 private:
  void sep() {
    if (!first_) std::printf(",");
    first_ = false;
  }
  bool first_ = true;
};

void print_layers(JsonLine& j, const Spans& s, const Modelled& m,
                  const dataplane::EngineRunStats& dp, std::size_t threads,
                  double serve_s, std::int64_t arrival_gen_ns) {
  const double users = static_cast<double>(m.users);
  const double shards = static_cast<double>(s.shard_ns.size());
  std::int64_t shard_total_ns = 0;
  for (const std::int64_t v : s.shard_ns) shard_total_ns += v;
  const double plan_self_mean =
      ratio(static_cast<double>(s.plan_self_ns),
            static_cast<double>(s.plan_calls));

  j.open("layers");
  j.num("app.arrival_gen_ns_per_user",
        ratio(static_cast<double>(arrival_gen_ns), users));
  j.count("broker.serve_calls", s.serve_ns.size());
  j.num("broker.serve_ns_p50", quantile(s.serve_ns, 0.50));
  j.num("broker.serve_ns_p99", quantile(s.serve_ns, 0.99));
  j.count("broker.serve_hit_calls", s.hit_calls);
  j.num("broker.serve_hit_ns", ratio(static_cast<double>(s.hit_ns),
                                     static_cast<double>(s.hit_calls)));
  j.count("broker.serve_plan_calls", s.plan_calls);
  j.num("broker.serve_plan_self_ns", plan_self_mean);
  j.count("broker.serve_shed_calls", s.shed_calls);
  j.num("broker.serve_shed_ns", ratio(static_cast<double>(s.shed_ns),
                                      static_cast<double>(s.shed_calls)));
  j.count("broker.serve_defer_calls", s.defer_calls);
  j.num("broker.serve_defer_ns", ratio(static_cast<double>(s.defer_ns),
                                       static_cast<double>(s.defer_calls)));
  // Every prepare() the broker ran -- in serve() calls, deferred retries
  // and stage-2 resolves alike -- at the in-serve mean self time, plus
  // all partitioner time, over the summed shard wall.
  j.num("broker.plan_share",
        ratio(plan_self_mean * static_cast<double>(s.prepares) +
                  static_cast<double>(s.partition_ns),
              static_cast<double>(shard_total_ns)));
  j.num("broker.cache_hit_ratio",
        ratio(static_cast<double>(m.cache_hits),
              static_cast<double>(m.cache_hits + m.cache_misses)));
  j.count("broker.cache_evictions", m.cache_evictions);
  j.num("broker.shed_ratio", ratio(static_cast<double>(m.shed), users));
  j.num("broker.defers_per_request",
        ratio(static_cast<double>(m.deferrals), users));
  j.num("broker.jobs_per_batch", ratio(static_cast<double>(m.jobs_dispatched),
                                       static_cast<double>(m.batches)));
  j.num("broker.twostage_fast_share",
        ratio(static_cast<double>(m.fast_serves), users));

  double solve_sum = 0.0;
  for (const std::int64_t v : s.solve_ns) solve_sum += static_cast<double>(v);
  j.count("partition.solve_calls", s.solve_ns.size());
  j.num("partition.solve_ns_mean",
        ratio(solve_sum, static_cast<double>(s.solve_ns.size())));
  j.num("partition.solve_ns_p99", quantile(s.solve_ns, 0.99));

  j.count("sim.events", m.events);
  j.num("sim.run_self_ns_per_event",
        ratio(static_cast<double>(s.run_ns - s.serve_total_ns -
                                  s.outside_solve_ns),
              static_cast<double>(m.events)));
  j.num("serverless.invocations_per_user",
        ratio(static_cast<double>(m.invocations), users));
  j.num("serverless.cold_start_ratio",
        ratio(static_cast<double>(m.cold_starts),
              static_cast<double>(m.invocations)));

  std::int64_t shard_max = 0;
  for (const std::int64_t v : s.shard_ns) shard_max = std::max(shard_max, v);
  j.count("fleet.shards", s.shard_ns.size());
  j.num("fleet.shard_setup_us",
        ratio(static_cast<double>(s.shard_setup_ns) / 1e3, shards));
  j.num("fleet.shard_ms_p50", quantile(s.shard_ns, 0.50) / 1e6);
  j.num("fleet.shard_ms_max", static_cast<double>(shard_max) / 1e6);
  j.num("fleet.merge_us_per_shard",
        ratio(static_cast<double>(s.merge_ns) / 1e3, shards));
  j.num("fleet.parallel_efficiency",
        ratio(static_cast<double>(shard_total_ns) / 1e9,
              static_cast<double>(threads) * serve_s));

  std::uint64_t items_max = 0;
  std::uint64_t items_min = 0;
  if (!dp.items_per_worker.empty()) {
    items_max = *std::max_element(dp.items_per_worker.begin(),
                                  dp.items_per_worker.end());
    items_min = *std::min_element(dp.items_per_worker.begin(),
                                  dp.items_per_worker.end());
  }
  j.count("dataplane.epochs", dp.epochs);
  j.num("dataplane.mean_occupancy", dp.mean_occupancy);
  j.num("dataplane.worker_items_max_over_min",
        ratio(static_cast<double>(items_max), static_cast<double>(items_min)));

  const std::uint64_t serve_phase_allocs = s.shard_allocs + s.merge_allocs;
  j.num("heap.allocs_per_user", ratio(static_cast<double>(serve_phase_allocs),
                                      users));
  j.num("broker.serve_allocs_per_call",
        ratio(static_cast<double>(s.serve_allocs),
              static_cast<double>(s.serve_ns.size())));
  j.num("sim.run_allocs_per_event",
        ratio(static_cast<double>(s.run_allocs - s.serve_allocs -
                                  s.outside_solve_allocs),
              static_cast<double>(m.events)));
  j.close();
}

// ---------------------------------------------------------------------------
// Entry point

/// This process's peak resident set (VmHWM). getrusage()'s ru_maxrss is
/// not used: Linux carries it across execve, so it can report the parent.
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: ntco_perfbench --workload <name> "
               "--seed <n> --seconds <s>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) o.workload = &w;
      if (o.workload == nullptr) usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else {
      usage("unknown argument");
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

/// One set-up + serving pass. Returns false if a correctness check failed.
bool run_repeat(const Options& opt, int index) {
  const Workload& w = *opt.workload;

  // Set-up: task graphs, then every shard's arrivals and user draws.
  const auto setup0 = Clock::now();
  const std::vector<app::TaskGraph> graphs = app::workloads::all();
  std::vector<ShardInput> inputs;
  inputs.reserve(w.shards);
  for (std::size_t s = 0; s < w.shards; ++s) {
    Rng rng = Rng::stream(opt.seed, s);
    inputs.push_back(make_input(w.shape, rng, graphs.size()));
  }
  const double setup_s = static_cast<double>(ns_since(setup0)) / 1e9;
  std::int64_t arrival_gen_ns = 0;
  for (const ShardInput& in : inputs) arrival_gen_ns += in.arrival_gen_ns;

  // Serving: shard bodies plus the shard-order merge.
  fleet::Replicator rep(opt.seed, w.threads);
  const auto serve0 = Clock::now();
  ShardResult merged = rep.reduce(
      w.shards, ShardResult{},
      [&](fleet::ShardContext& ctx) {
        return run_shard(w.shape, graphs, inputs[ctx.shard]);
      },
      [](ShardResult& acc, ShardResult&& shard, std::size_t s) {
        const std::uint64_t a0 = allocs_now();
        const auto t0 = Clock::now();
        acc.m.merge(shard.m);
        if (kTraced) acc.s.merge(shard.s);
        if (acc.error.empty() && !shard.error.empty())
          acc.error = "shard " + std::to_string(s) + ": " + shard.error;
        if (kTraced) {
          acc.s.merge_ns += ns_since(t0);
          acc.s.merge_allocs += allocs_now() - a0;
        }
      });
  const double serve_s = static_cast<double>(ns_since(serve0)) / 1e9;

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(merged.m.digest()));
  JsonLine j;
  j.begin();
  j.str("kind", "repeat");
  j.count("repeat", static_cast<std::uint64_t>(index));
  j.str("workload", w.name);
  j.count("seed", opt.seed);
  j.count("threads", w.threads);
  j.count("shards", w.shards);
  j.str("traced", kTraced ? "yes" : "no");
  j.num("setup_s", setup_s);
  j.num("serve_s", serve_s);
  j.str("error", merged.error);
  j.str("digest", digest);
  j.open("modelled");
  merged.m.for_each([&j](const char* k, std::uint64_t v) { j.count(k, v); });
  j.close();
  if (kTraced)
    print_layers(j, merged.s, merged.m, rep.last_dataplane_run(), w.threads,
                 serve_s, arrival_gen_ns);
  j.end();
  return merged.error.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  bool ok = true;
  try {
    // Repeat while the next repeat (at the mean length so far) still
    // fits the budget, and at least kMinRepeats times.
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
      ok = run_repeat(opt, i) && ok;
      const double elapsed = static_cast<double>(ns_since(start)) / 1e9;
      const double next = elapsed / (i + 1);
      if (elapsed + next > kMaxSeconds) break;
      if (i + 1 >= kMinRepeats && elapsed + next > opt.seconds) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  JsonLine j;
  j.begin();
  j.str("kind", "process");
  j.num("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0);
  j.end();
  return ok ? 0 : 1;
}
