#include <gtest/gtest.h>

#include "ntco/alloc/memory_optimizer.hpp"
#include "ntco/alloc/warm_pool.hpp"
#include "ntco/common/error.hpp"

namespace ntco::alloc {
namespace {

serverless::PlatformConfig provider() {
  serverless::PlatformConfig cfg;
  cfg.core_speed = Frequency::gigahertz(2.5);
  cfg.full_share_memory = DataSize::megabytes(1792);
  cfg.max_vcpus = 6.0;
  return cfg;
}

TEST(MemoryOptimizer, SweepCoversDeployableRange) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::giga(10), DataSize::megabytes(128),
                               /*parallel_fraction=*/1.0,
                               DataSize::megabytes(512));
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.front().memory, DataSize::megabytes(128));
  EXPECT_LE(curve.back().memory, DataSize::megabytes(10240));
  // Duration decreases monotonically with memory until the vCPU cap.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i].duration, curve[i - 1].duration);
}

TEST(MemoryOptimizer, FloorRespectsWorkingSet) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::giga(1), DataSize::megabytes(700));
  EXPECT_GE(curve.front().memory, DataSize::megabytes(700));
}

TEST(MemoryOptimizer, UnconstrainedChoiceIsCostMinimal) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::giga(20), DataSize::megabytes(128));
  const auto choice = opt.choose(Cycles::giga(20), DataSize::megabytes(128));
  EXPECT_TRUE(choice.feasible);
  for (const auto& pt : curve)
    EXPECT_LE(choice.chosen.cost, pt.cost);
}

TEST(MemoryOptimizer, DeadlineForcesLargerMemory) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto work = Cycles::giga(25);  // 10 s at full share
  const auto lazy = opt.choose(work, DataSize::megabytes(128));
  const auto tight = opt.choose(work, DataSize::megabytes(128), 1.0,
                                Duration::seconds(5));
  EXPECT_TRUE(tight.feasible);
  EXPECT_GE(tight.chosen.memory, lazy.chosen.memory);
  EXPECT_LE(tight.chosen.duration, Duration::seconds(5));
}

TEST(MemoryOptimizer, ImpossibleDeadlineReportsInfeasible) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto choice = opt.choose(Cycles::giga(1000), DataSize::megabytes(128), 1.0,
                                 Duration::millis(1));
  EXPECT_FALSE(choice.feasible);
  // Still returns the fastest configuration available.
  EXPECT_GT(choice.chosen.memory, DataSize::megabytes(5000));
}

TEST(MemoryOptimizer, TieBreaksTowardFasterConfiguration) {
  // For a 1 ms-scale job the billing quantum makes several configurations
  // cost-equal; the optimiser must pick the fastest of the cheapest.
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::mega(1), DataSize::megabytes(128));
  const auto choice = opt.choose(Cycles::mega(1), DataSize::megabytes(128));
  for (const auto& pt : curve) {
    EXPECT_LE(choice.chosen.cost, pt.cost);
    if (pt.cost == choice.chosen.cost) {
      EXPECT_LE(choice.chosen.duration, pt.duration);
    }
  }
}

TEST(MemoryOptimizer, AmdahlLimitedFunctionHasInteriorCostOptimum) {
  // With limited parallelism, memory beyond one vCPU buys little speed but
  // full price: the cost curve has a strict interior minimum well below
  // the provider maximum, which is the whole point of allocation (T3).
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto work = Cycles::giga(100);
  const auto choice = opt.choose(work, DataSize::megabytes(128),
                                 /*parallel_fraction=*/0.5);
  EXPECT_TRUE(choice.feasible);
  EXPECT_LT(choice.chosen.memory, DataSize::megabytes(10240));
  // The top-of-range configuration is strictly more expensive.
  const auto curve = opt.sweep(work, DataSize::megabytes(128), 0.5);
  EXPECT_GT(curve.back().cost, choice.chosen.cost);
  // A serial function gains nothing beyond one vCPU, so durations flatten.
  const auto serial = opt.sweep(work, DataSize::megabytes(1792), 0.0);
  EXPECT_EQ(serial.front().duration, serial.back().duration);
}

// sweep() used to price at the tariff in effect at hour 0 of simulated
// time, so a price window covering midnight rescaled every reported cost
// (F12, F16 and the repo benchmark run an overnight 0.55 discount). The
// allocator prices at the reference tariff: windows must not move its
// choice or its cost.
TEST(MemoryOptimizer, PriceWindowsDoNotChangeTheChoice) {
  sim::Simulator s;
  serverless::Platform plain(s, provider());
  auto windowed_cfg = provider();
  windowed_cfg.price_windows = {{0, 24, 0.5}};
  serverless::Platform windowed(s, windowed_cfg);
  const MemoryOptimizer plain_opt(plain);
  const MemoryOptimizer windowed_opt(windowed);
  for (const auto work : {Cycles::mega(1), Cycles::giga(20)}) {
    for (const double parallel : {0.5, 1.0}) {
      for (const auto deadline : {Duration::max(), Duration::seconds(5)}) {
        const auto a = plain_opt.choose(work, DataSize::megabytes(128),
                                        parallel, deadline);
        const auto b = windowed_opt.choose(work, DataSize::megabytes(128),
                                           parallel, deadline);
        EXPECT_EQ(a.chosen.memory, b.chosen.memory);
        EXPECT_EQ(a.chosen.cost, b.chosen.cost);
        EXPECT_EQ(a.chosen.cost, plain.invocation_cost(a.chosen.memory,
                                                       a.chosen.duration,
                                                       TimePoint::origin()));
      }
    }
  }
}

TEST(MemoryOptimizer, InvalidStepRejected) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  EXPECT_THROW(
      (void)opt.sweep(Cycles::giga(1), DataSize::megabytes(128), 1.0,
                      DataSize::megabytes(100)),  // not a 64 MB multiple
      ConfigError);
}

TEST(ErlangB, KnownValues) {
  // B(0, a) = 1 for any load.
  EXPECT_DOUBLE_EQ(erlang_b(0, 3.0), 1.0);
  // B(1, 1) = 1/2, B(2, 1) = 1/5 (textbook values).
  EXPECT_NEAR(erlang_b(1, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(erlang_b(2, 1.0), 0.2, 1e-12);
  // Zero load never blocks (with at least one server).
  EXPECT_DOUBLE_EQ(erlang_b(4, 0.0), 0.0);
}

TEST(ErlangB, MonotoneInServersAndLoad) {
  for (std::size_t n = 1; n < 20; ++n)
    EXPECT_LT(erlang_b(n + 1, 5.0), erlang_b(n, 5.0));
  for (double a = 1.0; a < 10.0; a += 1.0)
    EXPECT_LT(erlang_b(8, a), erlang_b(8, a + 1.0));
}

TEST(WarmPoolPlanner, MeetsTargetWithSmallestPool) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 10.0;
  in.service_time = Duration::millis(500);  // offered load 5 Erlangs
  in.target_cold_rate = 0.01;
  const auto plan = WarmPoolPlanner::plan(in);
  EXPECT_GT(plan.instances, 5u);  // must exceed the offered load
  EXPECT_LE(plan.predicted_cold_rate, 0.01);
  // One fewer instance would miss the target (minimality).
  EXPECT_GT(erlang_b(plan.instances - 1, 5.0), 0.01);
}

TEST(WarmPoolPlanner, ZeroLoadNeedsNoPool) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 0.0;
  const auto plan = WarmPoolPlanner::plan(in);
  EXPECT_EQ(plan.instances, 0u);
  EXPECT_TRUE(plan.standing_cost_per_hour.is_zero());
}

TEST(WarmPoolPlanner, StandingCostScalesWithPoolAndMemory) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 20.0;
  in.service_time = Duration::seconds(1);
  in.memory = DataSize::gigabytes(1);
  in.provisioned_price_per_gb_second = Money::nano_usd(4'167);
  const auto plan = WarmPoolPlanner::plan(in);
  const double expected_per_hour =
      4'167e-9 * static_cast<double>(plan.instances) * 3600.0;
  EXPECT_NEAR(plan.standing_cost_per_hour.to_usd(), expected_per_hour, 1e-6);
}

TEST(WarmPoolPlanner, CapsAtMaxInstances) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 1000.0;
  in.service_time = Duration::seconds(1);
  in.target_cold_rate = 0.0001;
  in.max_instances = 10;  // far too few for 1000 Erlangs
  const auto plan = WarmPoolPlanner::plan(in);
  EXPECT_EQ(plan.instances, 10u);
  EXPECT_GT(plan.predicted_cold_rate, 0.9);
}

TEST(WarmPoolPlanner, InvalidInputsRejected) {
  WarmPoolPlanner::Inputs in;
  in.target_cold_rate = 0.0;
  EXPECT_THROW((void)WarmPoolPlanner::plan(in), ContractViolation);
}

}  // namespace
}  // namespace ntco::alloc
