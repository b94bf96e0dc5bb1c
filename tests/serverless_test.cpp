#include "ntco/serverless/platform.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "ntco/common/error.hpp"

namespace ntco::serverless {
namespace {

PlatformConfig fast_config() {
  PlatformConfig cfg;
  cfg.core_speed = Frequency::gigahertz(2.0);
  cfg.full_share_memory = DataSize::megabytes(1792);
  cfg.cold_start_base = Duration::millis(100);
  cfg.image_install_rate = DataRate::megabits_per_second(400);
  cfg.keep_alive = Duration::minutes(10);
  return cfg;
}

FunctionSpec small_fn(std::string name = "fn") {
  return FunctionSpec{std::move(name), DataSize::megabytes(1792),
                      DataSize::megabytes(10)};
}

TEST(PlatformMath, CpuShareScalesWithMemory) {
  sim::Simulator s;
  Platform p(s, fast_config());
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(1792)), 1.0);
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(896)), 0.5);
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(10240)),
                   10240.0 / 1792.0);  // below the 6-vCPU cap
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(17920)), 6.0);  // capped
}

TEST(PlatformMath, ExecTimeInverselyProportionalToMemory) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto work = Cycles::giga(2);  // 1 s at full share (2 GHz)
  EXPECT_EQ(p.exec_time(DataSize::megabytes(1792), work), Duration::seconds(1));
  EXPECT_EQ(p.exec_time(DataSize::megabytes(896), work), Duration::seconds(2));
}

TEST(PlatformMath, ColdStartGrowsWithImage) {
  sim::Simulator s;
  Platform p(s, fast_config());
  // 10 MB at 400 Mb/s = 200 ms install + 100 ms base.
  EXPECT_EQ(p.cold_start_time(DataSize::megabytes(10)), Duration::millis(300));
  EXPECT_LT(p.cold_start_time(DataSize::megabytes(1)),
            p.cold_start_time(DataSize::megabytes(100)));
}

TEST(PlatformMath, QuantizeMemoryRoundsUpAndClamps) {
  sim::Simulator s;
  Platform p(s, fast_config());
  EXPECT_EQ(p.quantize_memory(DataSize::megabytes(100)),
            DataSize::megabytes(128));  // below floor
  EXPECT_EQ(p.quantize_memory(DataSize::megabytes(130)),
            DataSize::megabytes(192));  // round up to 64 MB quantum
  EXPECT_EQ(p.quantize_memory(DataSize::megabytes(99999)),
            DataSize::megabytes(10240));  // ceiling
}

TEST(PlatformMath, InvocationCostMatchesHandComputation) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.price_per_gb_second = Money::nano_usd(16'667);
  cfg.price_per_request = Money::nano_usd(200);
  Platform p(s, cfg);
  // 1 GB for exactly 1 s: 16667 + 200 nano-USD.
  const auto c = p.invocation_cost(DataSize::gigabytes(1),
                                   Duration::seconds(1), TimePoint::origin());
  EXPECT_EQ(c.count_nano_usd(), 16'867);
}

TEST(PlatformMath, BillingRoundsUpToQuantum) {
  sim::Simulator s;
  Platform p(s, fast_config());
  // 1 us of work is billed as a full 1 ms.
  const auto tiny = p.invocation_cost(DataSize::gigabytes(1),
                                      Duration::micros(1), TimePoint::origin());
  const auto ms = p.invocation_cost(DataSize::gigabytes(1),
                                    Duration::millis(1), TimePoint::origin());
  EXPECT_EQ(tiny, ms);
}

TEST(Platform, DeployValidation) {
  sim::Simulator s;
  Platform p(s, fast_config());
  EXPECT_THROW((void)p.deploy({"", DataSize::megabytes(256),
                               DataSize::megabytes(1)}),
               ConfigError);
  EXPECT_THROW((void)p.deploy({"too-small", DataSize::megabytes(64),
                               DataSize::megabytes(1)}),
               ConfigError);
  EXPECT_THROW((void)p.deploy({"misaligned", DataSize::megabytes(200),
                               DataSize::megabytes(1)}),
               ConfigError);
  const auto id = p.deploy(small_fn());
  EXPECT_EQ(p.spec(id).name, "fn");
  EXPECT_EQ(p.function_count(), 1u);
}

TEST(Platform, FirstInvocationIsColdSecondIsWarm) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  std::vector<InvocationResult> results;
  p.invoke(id, Cycles::giga(2), [&](const InvocationResult& r) {
    results.push_back(r);
    p.invoke(id, Cycles::giga(2),
             [&](const InvocationResult& r2) { results.push_back(r2); });
  });
  s.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].cold_start);
  EXPECT_EQ(results[0].init_time, Duration::millis(300));
  EXPECT_EQ(results[0].exec_time, Duration::seconds(1));
  EXPECT_FALSE(results[1].cold_start);
  EXPECT_TRUE(results[1].init_time.is_zero());
}

TEST(Platform, KeepAliveExpiryForcesColdStart) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.keep_alive = Duration::seconds(5);
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  // Execution ends at 1.3 s; stop before the 5 s keep-alive lapses.
  s.run_until(TimePoint::origin() + Duration::seconds(2));
  EXPECT_EQ(p.warm_count(id), 1u);
  // Let the keep-alive lapse.
  s.run_until(s.now() + Duration::seconds(6));
  EXPECT_EQ(p.warm_count(id), 0u);
  bool cold = false;
  p.invoke(id, Cycles::giga(2),
           [&](const InvocationResult& r) { cold = r.cold_start; });
  s.run();
  EXPECT_TRUE(cold);
}

TEST(Platform, ReuseWithinKeepAliveStaysWarm) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.keep_alive = Duration::seconds(5);
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  // Execution ends at 1.3 s; re-invoke 3 s later, inside the 5 s window.
  s.run_until(TimePoint::origin() + Duration::millis(4300));
  bool cold = true;
  p.invoke(id, Cycles::giga(2),
           [&](const InvocationResult& r) { cold = r.cold_start; });
  s.run();
  EXPECT_FALSE(cold);
}

TEST(Platform, ConcurrentBurstColdStartsEachInstance) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  int colds = 0;
  for (int i = 0; i < 5; ++i)
    p.invoke(id, Cycles::giga(2), [&](const InvocationResult& r) {
      if (r.cold_start) ++colds;
    });
  s.run_until(TimePoint::origin() + Duration::seconds(2));
  EXPECT_EQ(colds, 5);  // no instance is free to reuse in a burst
  EXPECT_EQ(p.warm_count(id), 5u);
  EXPECT_EQ(p.stats().peak_concurrency, 5u);
}

TEST(Platform, AccountConcurrencyThrottlesFifo) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 2;
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  std::vector<int> done_order;
  std::vector<Duration> queue_waits;
  for (int i = 0; i < 4; ++i)
    p.invoke(id, Cycles::giga(2), [&, i](const InvocationResult& r) {
      done_order.push_back(i);
      queue_waits.push_back(r.queue_wait);
    });
  s.run();
  ASSERT_EQ(done_order.size(), 4u);
  EXPECT_EQ(done_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(queue_waits[0].is_zero());
  EXPECT_GT(queue_waits[2], Duration::zero());
  EXPECT_EQ(p.stats().throttled, 2u);
  EXPECT_EQ(p.stats().peak_concurrency, 2u);
}

TEST(Platform, ProvisionedConcurrencySkipsColdStart) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  p.set_provisioned_concurrency(id, 2);
  EXPECT_EQ(p.warm_count(id), 2u);
  int colds = 0;
  for (int i = 0; i < 2; ++i)
    p.invoke(id, Cycles::giga(2), [&](const InvocationResult& r) {
      if (r.cold_start) ++colds;
    });
  s.run();
  EXPECT_EQ(colds, 0);
  EXPECT_EQ(p.warm_count(id), 2u);  // provisioned instances return to pool
}

TEST(Platform, ProvisionedCapacityAccruesCostWhileIdle) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.provisioned_price_per_gb_second = Money::nano_usd(4'167);
  cfg.memory_quantum = DataSize::megabytes(1);  // allow an exact 1 GB config
  Platform p(s, cfg);
  const auto id = p.deploy({"fn", DataSize::gigabytes(1),
                            DataSize::megabytes(10)});
  p.set_provisioned_concurrency(id, 2);
  s.schedule_after(Duration::seconds(100), [] {});
  s.run();
  // 2 instances x 1 GB x 100 s x 4167 nano$/GB-s.
  EXPECT_EQ(p.stats().provisioned_cost.count_nano_usd(), 2 * 100 * 4'167);
  p.set_provisioned_concurrency(id, 0);
  EXPECT_EQ(p.warm_count(id), 0u);
  const auto before = p.stats().provisioned_cost;
  s.schedule_after(Duration::seconds(50), [] {});
  s.run();
  EXPECT_EQ(p.stats().provisioned_cost, before);  // no further accrual
}

TEST(Platform, RedeployInvalidatesWarmInstances) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(1), [](const InvocationResult&) {});
  s.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(p.warm_count(id), 1u);
  p.redeploy(id, small_fn("fn-v2"));
  EXPECT_EQ(p.warm_count(id), 0u);
  bool cold = false;
  p.invoke(id, Cycles::giga(1),
           [&](const InvocationResult& r) { cold = r.cold_start; });
  s.run();
  EXPECT_TRUE(cold);
  EXPECT_EQ(p.spec(id).name, "fn-v2");
}

TEST(Platform, PriceWindowsDiscountOffPeak) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.price_windows = {{22, 6, 0.5}, {6, 22, 1.0}};  // wrap-around window
  Platform p(s, cfg);
  const auto day = p.invocation_cost(DataSize::gigabytes(1),
                                     Duration::seconds(1),
                                     TimePoint::origin() + Duration::hours(12));
  const auto night = p.invocation_cost(
      DataSize::gigabytes(1), Duration::seconds(1),
      TimePoint::origin() + Duration::hours(23));
  const auto early = p.invocation_cost(
      DataSize::gigabytes(1), Duration::seconds(1),
      TimePoint::origin() + Duration::hours(26));  // 02:00 next day
  EXPECT_LT(night, day);
  EXPECT_EQ(night, early);
  EXPECT_DOUBLE_EQ(p.price_multiplier(TimePoint::origin() + Duration::hours(23)),
                   0.5);
}

TEST(Platform, StatsAccumulateAcrossInvocations) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  for (int i = 0; i < 3; ++i)
    p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.run();
  const auto st = p.stats();
  EXPECT_EQ(st.invocations, 3u);
  EXPECT_EQ(st.cold_starts, 3u);  // burst
  EXPECT_EQ(st.total_exec, Duration::seconds(3));
  EXPECT_GT(st.exec_cost, Money::zero());
  EXPECT_EQ(st.request_cost.count_nano_usd(), 3 * 200);
  EXPECT_EQ(p.total_cost(), st.exec_cost + st.request_cost + st.provisioned_cost);
}

TEST(Platform, InvalidConfigRejected) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 0;
  EXPECT_THROW(Platform(s, cfg), ConfigError);
  cfg = fast_config();
  cfg.price_windows = {{25, 3, 1.0}};
  EXPECT_THROW(Platform(s, cfg), ConfigError);
}

TEST(PlatformCheckpoint, ResumeCreditsPriorExecAndBillsOnlyRemainder) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  InvocationResult res;
  // 2 Gcycles = 1 s at this config; half of it is already done elsewhere.
  p.resume(id, Cycles::giga(2), Duration::millis(500),
           [&res](const InvocationResult& r) { res = r; });
  s.run();
  EXPECT_FALSE(res.preempted);
  EXPECT_EQ(res.exec_time, Duration::millis(500));
  EXPECT_EQ(res.exec_credit, Duration::millis(500));
  EXPECT_EQ(res.cost, p.invocation_cost(DataSize::megabytes(1792),
                                        Duration::millis(500), res.started));
}

TEST(PlatformCheckpoint, CreditBeyondFullExecClampsToImmediateCompletion) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  InvocationResult res;
  p.resume(id, Cycles::giga(2), Duration::seconds(5),
           [&res](const InvocationResult& r) { res = r; });
  s.run();
  EXPECT_FALSE(res.preempted);
  EXPECT_EQ(res.exec_time, Duration::zero());
}

TEST(PlatformCheckpoint, PreemptBillsPartialSpotRunAtSpotRate) {
  // The ISSUE-7 regression: a checkpointed spot run bills exactly its
  // partial exec at the spot price, and resuming credits that exec.
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.spot_mean_time_to_preempt = Duration::zero();  // only forced preempts
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  InvocationResult partial;
  const auto inv = p.invoke(
      id, Cycles::giga(2), [&partial](const InvocationResult& r) { partial = r; },
      Tier::Spot);
  // Cold start is 300 ms (10 MB at 400 Mb/s + 100 ms base); checkpoint
  // 400 ms in, i.e. 100 ms into execution.
  s.schedule_at(TimePoint::origin() + Duration::millis(400),
                [&p, inv] { EXPECT_TRUE(p.checkpoint_preempt(inv)); });
  s.run();
  EXPECT_TRUE(partial.preempted);
  EXPECT_EQ(partial.tier, Tier::Spot);
  EXPECT_EQ(partial.exec_time, Duration::millis(100));
  EXPECT_EQ(partial.cost,
            p.invocation_cost(DataSize::megabytes(1792), Duration::millis(100),
                              partial.started, Tier::Spot));
  // Spot rate really is the discounted one.
  EXPECT_LT(partial.cost,
            p.invocation_cost(DataSize::megabytes(1792), Duration::millis(100),
                              partial.started, Tier::OnDemand));

  // Resume with the partial run credited: only the 900 ms tail runs and
  // bills (here on-demand), so nothing is double-charged.
  InvocationResult rest;
  p.resume(id, Cycles::giga(2), partial.exec_time,
           [&rest](const InvocationResult& r) { rest = r; });
  s.run();
  EXPECT_FALSE(rest.preempted);
  EXPECT_EQ(rest.exec_time, Duration::millis(900));
  EXPECT_EQ(rest.exec_credit, Duration::millis(100));
  EXPECT_EQ(rest.cost, p.invocation_cost(DataSize::megabytes(1792),
                                         Duration::millis(900), rest.started));
  EXPECT_EQ(partial.exec_time + rest.exec_time, Duration::seconds(1));
}

TEST(PlatformCheckpoint, QueuedInvocationCheckpointsWithZeroExecAndCost) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 1;
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  InvocationResult queued;
  const auto second =
      p.invoke(id, Cycles::giga(2),
               [&queued](const InvocationResult& r) { queued = r; });
  const auto st = p.in_flight(second);
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->executing);
  EXPECT_TRUE(p.checkpoint_preempt(second));
  EXPECT_TRUE(queued.preempted);
  EXPECT_EQ(queued.exec_time, Duration::zero());
  EXPECT_EQ(queued.cost, Money::zero());
  EXPECT_FALSE(p.in_flight(second).has_value());
  s.run();
  EXPECT_EQ(p.stats().invocations, 2u);
}

TEST(PlatformCheckpoint, InFlightReportsExecutionProgress) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  const auto inv =
      p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.schedule_at(TimePoint::origin() + Duration::millis(800), [&p, inv] {
    const auto st = p.in_flight(inv);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(st->executing);
    EXPECT_EQ(st->consumed, Duration::millis(500));  // 300 ms was cold start
    EXPECT_EQ(st->remaining, Duration::millis(500));
  });
  s.run();
  EXPECT_FALSE(p.in_flight(inv).has_value());
}

TEST(PlatformCheckpoint, UnknownHandleReturnsFalse) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  const auto inv =
      p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.run();
  EXPECT_FALSE(p.checkpoint_preempt(inv));  // already completed
  EXPECT_FALSE(p.checkpoint_preempt(inv + 17));
}

// --- Admission without the queue round trip, and recycled running_
// entries. ------------------------------------------------------------------

TEST(PlatformRecycling, ThrottledInvocationsStartInFifoOrder) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 1;
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  std::vector<std::size_t> finished;
  std::vector<InvocationResult> results(4);
  // Distinct works, so that an out-of-order start would reorder finishes.
  const std::vector<Cycles> works = {Cycles::giga(4), Cycles::giga(1),
                                     Cycles::giga(3), Cycles::giga(2)};
  for (std::size_t i = 0; i < 4; ++i)
    p.invoke(id, works[i], [&, i](const InvocationResult& r) {
      finished.push_back(i);
      results[i] = r;
    });
  EXPECT_EQ(p.concurrency_in_use(), 1u);
  EXPECT_EQ(p.stats().throttled, 3u);
  s.run();
  EXPECT_EQ(finished, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(results[0].queue_wait.is_zero());
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(results[i].started, results[i - 1].finished) << i;
    EXPECT_EQ(results[i].queue_wait,
              results[i - 1].finished - results[i].submitted)
        << i;
  }
}

TEST(PlatformRecycling, InvokeFromInsideACompletionCallback) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  std::vector<InvocationId> ids;
  std::vector<InvocationResult> results;
  // Each completion invokes the next link of a five-link chain; the new
  // invocation takes the node its predecessor just released.
  std::function<void(const InvocationResult&)> next =
      [&](const InvocationResult& r) {
        results.push_back(r);
        if (results.size() == 5) return;
        const InvocationId inv = p.invoke(id, Cycles::giga(2), next);
        ids.push_back(inv);
        const auto st = p.in_flight(inv);
        ASSERT_TRUE(st.has_value());
        EXPECT_TRUE(st->executing);
        EXPECT_EQ(st->remaining, Duration::seconds(1));
        EXPECT_FALSE(p.in_flight(ids[ids.size() - 2]).has_value());
      };
  ids.push_back(p.invoke(id, Cycles::giga(2), next));
  s.run();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(ids, (std::vector<InvocationId>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(results[0].cold_start);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].cold_start);
    EXPECT_EQ(results[i].started, results[i - 1].finished);
    EXPECT_EQ(results[i].exec_time, Duration::seconds(1));
  }
  EXPECT_EQ(p.concurrency_in_use(), 0u);
}

TEST(PlatformRecycling, CheckpointAndInFlightSeeRecycledEntries) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.spot_mean_time_to_preempt = Duration::zero();  // only forced preempts
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  // Three invocations run to completion; their nodes go back to the pool.
  std::vector<InvocationId> old;
  for (int i = 0; i < 3; ++i)
    old.push_back(
        p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {}));
  s.run();
  for (const InvocationId inv : old) {
    EXPECT_FALSE(p.in_flight(inv).has_value());
    EXPECT_FALSE(p.checkpoint_preempt(inv));
  }

  // Two new invocations reuse those nodes under fresh ids. The keep-alive
  // window has lapsed, so both cold-start: 300 ms of init, then exec.
  InvocationResult a, b;
  const TimePoint t0 = s.now();
  const InvocationId ia =
      p.invoke(id, Cycles::giga(2), [&a](const InvocationResult& r) { a = r; });
  const InvocationId ib =
      p.invoke(id, Cycles::giga(4), [&b](const InvocationResult& r) { b = r; });
  EXPECT_EQ(ia, 4u);
  EXPECT_EQ(ib, 5u);
  s.schedule_at(t0 + Duration::millis(550), [&] {
    const auto sa = p.in_flight(ia);
    const auto sb = p.in_flight(ib);
    ASSERT_TRUE(sa.has_value());
    ASSERT_TRUE(sb.has_value());
    EXPECT_EQ(sa->consumed, Duration::millis(250));
    EXPECT_EQ(sa->remaining, Duration::millis(750));
    EXPECT_EQ(sb->remaining, Duration::millis(1750));
    EXPECT_TRUE(p.checkpoint_preempt(ib));
    EXPECT_FALSE(p.in_flight(ib).has_value());
    EXPECT_TRUE(p.in_flight(ia).has_value());
    for (const InvocationId inv : old)
      EXPECT_FALSE(p.in_flight(inv).has_value());
  });
  s.run();
  EXPECT_FALSE(a.preempted);
  EXPECT_EQ(a.exec_time, Duration::seconds(1));
  EXPECT_EQ(a.finished, t0 + Duration::millis(1300));
  EXPECT_TRUE(b.preempted);
  EXPECT_EQ(b.exec_time, Duration::millis(250));
  EXPECT_EQ(b.finished, t0 + Duration::millis(550));
}

TEST(PlatformRecycling, CallbacksMayBeMoveOnly) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  Platform::Callback cb = [payload = std::move(payload),
                           &seen](const InvocationResult&) { seen = *payload; };
  EXPECT_TRUE(cb.is_inline());
  p.invoke(id, Cycles::giga(2), std::move(cb));
  s.run();
  EXPECT_EQ(seen, 42);
}

}  // namespace
}  // namespace ntco::serverless
