// Failure injection: flaky links, controller retries, local fallback, and
// run-failure escalation.

#include <gtest/gtest.h>

#include <string>

#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/net/flaky_link.hpp"
#include "ntco/net/path.hpp"

namespace ntco {
namespace {

/// Path whose uplink/downlink fail with the given probabilities.
net::NetworkPath flaky_path(double up_fail, double down_fail,
                            std::uint64_t seed) {
  const auto p = net::profile_wifi();
  return net::NetworkPath(
      "flaky-wifi",
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.uplink),
          up_fail, Duration::seconds(2), Rng(seed)),
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.downlink),
          down_fail, Duration::seconds(2), Rng(seed + 1)));
}

struct Fixture {
  sim::Simulator sim;
  serverless::Platform platform;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;

  Fixture(double up_fail, double down_fail, std::uint64_t seed = 7,
          core::ExecutionMode mode = core::ExecutionMode::Sequential)
      : platform(sim, {}),
        ue(device::budget_phone()),
        path(flaky_path(up_fail, down_fail, seed)),
        controller(sim, platform, ue, path, make_cfg(mode)) {}

  static core::ControllerConfig make_cfg(core::ExecutionMode mode) {
    core::ControllerConfig cfg;
    cfg.objective = partition::Objective::latency();
    cfg.execution_mode = mode;
    cfg.max_transfer_retries = 2;
    return cfg;
  }
};

TEST(FlakyLink, NeverFailsAtRateZero) {
  net::FlakyLink link(
      std::make_unique<net::FixedLink>(Duration::millis(5),
                                       DataRate::megabits_per_second(10)),
      0.0, Duration::seconds(1), Rng(1));
  for (int i = 0; i < 100; ++i) {
    const auto a = link.try_transfer(DataSize::kilobytes(100));
    EXPECT_TRUE(a.ok);
  }
  EXPECT_EQ(link.failures(), 0u);
}

TEST(FlakyLink, AlwaysFailsAtRateOne) {
  net::FlakyLink link(
      std::make_unique<net::FixedLink>(Duration::millis(5),
                                       DataRate::megabits_per_second(10)),
      1.0, Duration::seconds(3), Rng(2));
  const auto a = link.try_transfer(DataSize::kilobytes(100));
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.elapsed, Duration::seconds(3));  // timeout burned
  EXPECT_EQ(link.failures(), 1u);
}

TEST(FlakyLink, FailureRateIsRespected) {
  net::FlakyLink link(
      std::make_unique<net::FixedLink>(Duration::millis(5),
                                       DataRate::megabits_per_second(10)),
      0.25, Duration::seconds(1), Rng(3));
  int failures = 0;
  for (int i = 0; i < 4000; ++i)
    if (!link.try_transfer(DataSize::bytes(100)).ok) ++failures;
  EXPECT_NEAR(failures / 4000.0, 0.25, 0.03);
}

TEST(FlakyLink, AttemptHelperHandlesPlainLinks) {
  net::FixedLink plain(Duration::millis(5),
                       DataRate::megabits_per_second(10));
  const auto a = net::attempt_transfer(plain, DataSize::kilobytes(10));
  EXPECT_TRUE(a.ok);
  EXPECT_GT(a.elapsed, Duration::zero());
}

TEST(FlakyLink, InvalidConstructionThrows) {
  EXPECT_THROW(net::FlakyLink(nullptr, 0.1, Duration::seconds(1), Rng(1)),
               ContractViolation);
  EXPECT_THROW(net::FlakyLink(std::make_unique<net::FixedLink>(
                                  Duration::millis(1),
                                  DataRate::megabits_per_second(1)),
                              1.5, Duration::seconds(1), Rng(1)),
               ContractViolation);
}

TEST(FailureInjection, ReliablePathReportsNoFailures) {
  Fixture fx(0.0, 0.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto r = fx.controller.execute(plan, g);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.transfer_failures, 0u);
  EXPECT_EQ(r.local_fallbacks, 0u);
}

TEST(FailureInjection, OccasionalFailuresAreRetriedTransparently) {
  // 20% loss with 2 retries: P(3 consecutive losses) = 0.8%, so most runs
  // complete with retries absorbed into the makespan.
  int completed = 0, with_retries = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Fixture fx(0.2, 0.2, 100 + seed);
    const auto g = app::workloads::ml_batch_training();
    const auto plan =
        fx.controller.prepare(g, partition::MinCutPartitioner{});
    const auto r = fx.controller.execute(plan, g);
    if (!r.failed) ++completed;
    if (r.transfer_failures > 0) ++with_retries;
  }
  EXPECT_GE(completed, 16);
  // The ML plan crosses the boundary only a few times per run, but at 20%
  // loss a decent share of runs still exercises the retry path.
  EXPECT_GE(with_retries, 4);
}

TEST(FailureInjection, DeadUplinkFallsBackToLocalExecution) {
  Fixture fx(1.0, 0.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const auto r = fx.controller.execute(plan, g);
  // Every planned-remote component whose upload failed ran on the UE.
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.remote_invocations, 0u);
  EXPECT_GT(r.local_fallbacks, 0u);
  EXPECT_GT(r.transfer_failures, 0u);
  EXPECT_TRUE(r.cloud_cost.is_zero());
  // The run is slower than a clean offload (timeouts + local compute).
  const device::Device ref(device::budget_phone());
  EXPECT_GT(r.makespan, ref.exec_time(g.total_work()));
}

TEST(FailureInjection, DeadDownlinkAbortsTheRun) {
  Fixture fx(0.0, 1.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const auto r = fx.controller.execute(plan, g);
  EXPECT_TRUE(r.failed);
  EXPECT_GT(r.transfer_failures, 0u);
  // Work did run in the cloud before the results were stranded.
  EXPECT_GT(r.remote_invocations, 0u);
}

TEST(FailureInjection, FallbackEnergyIsAccounted) {
  Fixture fx(1.0, 0.0);
  const auto g = app::workloads::photo_backup();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto r = fx.controller.execute(plan, g);
  // All-local compute energy plus the radio energy burned on timeouts.
  const device::Device ref(device::budget_phone());
  Energy local_only;
  for (const auto& c : g.components()) local_only += ref.exec_energy(c.work);
  EXPECT_GT(r.device_energy, local_only);
}

TEST(FailureInjection, ParallelModeEscalatesToRunFailure) {
  Fixture fx(1.0, 0.0, 7, core::ExecutionMode::Parallel);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  bool done = false;
  core::ExecutionReport r;
  fx.controller.execute_async(plan, g, [&](const core::ExecutionReport& rep) {
    r = rep;
    done = true;
  });
  fx.sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(r.failed);
  EXPECT_GT(r.transfer_failures, 0u);
}

TEST(FailureInjection, ZeroRetriesFailsFaster) {
  auto run_with_retries = [](std::size_t retries) {
    core::ControllerConfig cfg;
    cfg.objective = partition::Objective::latency();
    cfg.max_transfer_retries = retries;
    sim::Simulator sim;
    serverless::Platform platform(sim, {});
    device::Device ue(device::budget_phone());
    auto path = flaky_path(1.0, 0.0, 55);
    core::OffloadController ctl(sim, platform, ue, path, cfg);
    const auto g = app::workloads::photo_backup();
    const auto plan = ctl.prepare(g, partition::MinCutPartitioner{});
    bool done = false;
    core::ExecutionReport r;
    ctl.execute_async(plan, g, [&](const core::ExecutionReport& rep) {
      r = rep;
      done = true;
    });
    while (!done && sim.step()) {
    }
    return r;
  };
  const auto eager = run_with_retries(0);
  const auto patient = run_with_retries(4);
  EXPECT_LT(eager.transfer_failures, patient.transfer_failures);
  EXPECT_LT(eager.makespan, patient.makespan);  // fewer timeouts burned
}

// --- Run-record lifecycle: exactly one `done` per run, and every record
// back in the pool once the simulator drains. ------------------------------

struct Outcome {
  int dones = 0;
  core::ExecutionReport report;
};

Outcome run_to_quiescence(Fixture& fx, const app::TaskGraph& g,
                          const core::DeploymentPlan& plan) {
  Outcome out;
  fx.controller.execute_async(plan, g, [&out](const core::ExecutionReport& r) {
    ++out.dones;
    out.report = r;
  });
  EXPECT_EQ(fx.controller.live_runs(), 1u);
  fx.sim.run();
  return out;
}

TEST(RunLifecycle, SequentialSuccessReturnsItsRecord) {
  Fixture fx(0.0, 0.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const Outcome out = run_to_quiescence(fx, g, plan);
  EXPECT_EQ(out.dones, 1);
  EXPECT_FALSE(out.report.failed);
  EXPECT_GT(out.report.remote_invocations, 0u);
  EXPECT_EQ(fx.controller.live_runs(), 0u);

  // Concurrent runs each hold a record; all return.
  int dones = 0;
  for (int i = 0; i < 5; ++i)
    fx.controller.execute_async(plan, g,
                                [&dones](const core::ExecutionReport&) {
                                  ++dones;
                                });
  EXPECT_EQ(fx.controller.live_runs(), 5u);
  fx.sim.run();
  EXPECT_EQ(dones, 5);
  EXPECT_EQ(fx.controller.live_runs(), 0u);
}

TEST(RunLifecycle, SequentialUploadFallbackReturnsItsRecord) {
  Fixture fx(1.0, 0.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const Outcome out = run_to_quiescence(fx, g, plan);
  EXPECT_EQ(out.dones, 1);
  EXPECT_FALSE(out.report.failed);
  EXPECT_GT(out.report.local_fallbacks, 0u);
  EXPECT_EQ(fx.controller.live_runs(), 0u);
}

TEST(RunLifecycle, SequentialDownloadFailureReturnsItsRecord) {
  Fixture fx(0.0, 1.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const Outcome out = run_to_quiescence(fx, g, plan);
  EXPECT_EQ(out.dones, 1);
  EXPECT_TRUE(out.report.failed);
  EXPECT_EQ(fx.controller.live_runs(), 0u);
}

TEST(RunLifecycle, FailedParallelRunHoldsItsRecordUntilStragglersFire) {
  // A pinned splitter feeds eight remote workers whose results must come
  // down to a pinned collector. The dead downlink fails the run at the
  // first worker's download, while the other workers are still running.
  app::TaskGraph g("fanout");
  const auto mem = DataSize::megabytes(192);
  const auto img = DataSize::megabytes(20);
  const auto split =
      g.add_component({"split", Cycles::mega(50), mem, img, true, 0.8});
  const auto join =
      g.add_component({"join", Cycles::mega(50), mem, img, true, 0.8});
  for (int i = 0; i < 8; ++i) {
    const auto w = g.add_component({"worker" + std::to_string(i),
                                    Cycles::giga(8), mem, img, false, 0.8});
    g.add_flow(split, w, DataSize::kilobytes(50));
    g.add_flow(w, join, DataSize::kilobytes(50));
  }
  Fixture fx(0.0, 1.0, 7, core::ExecutionMode::Parallel);
  const auto plan = fx.controller.prepare(g, partition::RemoteAllPartitioner{});
  ASSERT_EQ(plan.partition.remote_count(), 8u);

  int dones = 0;
  std::size_t live_at_done = 0;
  std::size_t running_at_done = 0;
  core::ExecutionReport report;
  fx.controller.execute_async(plan, g, [&](const core::ExecutionReport& r) {
    ++dones;
    report = r;
    live_at_done = fx.controller.live_runs();
    running_at_done = fx.platform.concurrency_in_use();
  });
  fx.sim.run();
  EXPECT_EQ(dones, 1);
  EXPECT_TRUE(report.failed);
  EXPECT_GT(running_at_done, 0u);  // stragglers were still executing
  EXPECT_EQ(live_at_done, 1u);     // so the record was still held
  EXPECT_EQ(fx.controller.live_runs(), 0u);
  EXPECT_EQ(fx.platform.concurrency_in_use(), 0u);

  // The recycled record serves a fresh run.
  const Outcome again = run_to_quiescence(fx, g, plan);
  EXPECT_EQ(again.dones, 1);
  EXPECT_TRUE(again.report.failed);
  EXPECT_EQ(fx.controller.live_runs(), 0u);
}

}  // namespace
}  // namespace ntco
