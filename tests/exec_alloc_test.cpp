// Allocation budget of the execution path: once a controller and its
// platform are warm (run-record pool, platform node pool, warm instances
// and the kernel's slot arena all sized), executing a plan allocates
// nothing. The counting global operator new lives in this test binary
// only.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "ntco/app/workloads.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/net/path.hpp"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

// GCC flags free() in a replacement delete as a mismatch; it pairs with
// the malloc() above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ntco::core {
namespace {

struct World {
  sim::Simulator sim;
  serverless::Platform platform{sim, {}};
  device::Device ue{device::budget_phone()};
  net::NetworkPath path = net::make_fixed_path(net::profile_wifi());
  OffloadController controller;

  explicit World(ExecutionMode mode)
      : controller(sim, platform, ue, path, make_cfg(mode)) {}

  static ControllerConfig make_cfg(ExecutionMode mode) {
    ControllerConfig cfg;
    cfg.execution_mode = mode;
    return cfg;
  }
};

/// Allocations made by one execute() of every paper workload after two
/// warm-up executions of each.
void expect_warm_execute_allocates_nothing(ExecutionMode mode) {
  World w(mode);
  const auto graphs = app::workloads::all();
  std::vector<DeploymentPlan> plans;
  for (const auto& g : graphs)
    plans.push_back(
        w.controller.prepare(g, partition::RemoteAllPartitioner{}));
  for (int warm = 0; warm < 2; ++warm)
    for (std::size_t i = 0; i < graphs.size(); ++i)
      (void)w.controller.execute(plans[i], graphs[i]);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_GT(plans[i].partition.remote_count(), 0u) << graphs[i].name();
    const std::uint64_t before = g_allocs;
    const ExecutionReport r = w.controller.execute(plans[i], graphs[i]);
    const std::uint64_t allocs = g_allocs - before;
    EXPECT_EQ(allocs, 0u) << graphs[i].name();
    EXPECT_FALSE(r.failed);
    EXPECT_GT(r.remote_invocations, 0u);
  }
  EXPECT_EQ(w.controller.live_runs(), 0u);
}

TEST(ExecAlloc, WarmSequentialExecuteAllocatesNothing) {
  expect_warm_execute_allocates_nothing(ExecutionMode::Sequential);
}

TEST(ExecAlloc, WarmParallelExecuteAllocatesNothing) {
  expect_warm_execute_allocates_nothing(ExecutionMode::Parallel);
}

}  // namespace
}  // namespace ntco::core
