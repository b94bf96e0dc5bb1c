#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "ntco/app/generators.hpp"
#include "ntco/app/task_graph.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"

namespace ntco::app {
namespace {

TaskGraph diamond() {
  TaskGraph g("diamond");
  const auto a = g.add_component({"a", Cycles::mega(10), DataSize::megabytes(64),
                                  DataSize::megabytes(5), true});
  const auto b = g.add_component({"b", Cycles::mega(20), DataSize::megabytes(64),
                                  DataSize::megabytes(5), false});
  const auto c = g.add_component({"c", Cycles::mega(30), DataSize::megabytes(64),
                                  DataSize::megabytes(5), false});
  const auto d = g.add_component({"d", Cycles::mega(40), DataSize::megabytes(64),
                                  DataSize::megabytes(5), true});
  g.add_flow(a, b, DataSize::kilobytes(100));
  g.add_flow(a, c, DataSize::kilobytes(200));
  g.add_flow(b, d, DataSize::kilobytes(300));
  g.add_flow(c, d, DataSize::kilobytes(400));
  return g;
}

TEST(TaskGraph, BasicAccessors) {
  const auto g = diamond();
  EXPECT_EQ(g.component_count(), 4u);
  EXPECT_EQ(g.flow_count(), 4u);
  EXPECT_EQ(g.component(0).name, "a");
  EXPECT_EQ(g.flow(0).bytes, DataSize::kilobytes(100));
  EXPECT_EQ(g.out_flows(0).size(), 2u);
  EXPECT_EQ(g.in_flows(3).size(), 2u);
  EXPECT_EQ(g.pinned_count(), 2u);
}

TEST(TaskGraph, Totals) {
  const auto g = diamond();
  EXPECT_EQ(g.total_work(), Cycles::mega(100));
  EXPECT_EQ(g.total_flow_bytes(), DataSize::kilobytes(1000));
  EXPECT_DOUBLE_EQ(g.compute_to_communication(), 100e6 / 1e6);
}

TEST(TaskGraph, ContractsOnMalformedInput) {
  TaskGraph g("bad");
  EXPECT_THROW((void)g.add_component({"", Cycles::mega(1), {}, {}, false}),
               ContractViolation);
  const auto a = g.add_component({"a", Cycles::mega(1), {}, {}, false});
  EXPECT_THROW(g.add_flow(a, a, DataSize::bytes(1)), ContractViolation);
  EXPECT_THROW(g.add_flow(a, 99, DataSize::bytes(1)), ContractViolation);
  EXPECT_THROW((void)g.component(42), ContractViolation);
}

TEST(TaskGraph, TopologicalOrderRespectsFlows) {
  const auto g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& f : g.flows()) EXPECT_LT(pos[f.from], pos[f.to]);
}

TEST(TaskGraph, CycleIsDetected) {
  TaskGraph g("cyclic");
  const auto a = g.add_component({"a", Cycles::mega(1), {}, {}, false});
  const auto b = g.add_component({"b", Cycles::mega(1), {}, {}, false});
  g.add_flow(a, b, DataSize::bytes(1));
  g.add_flow(b, a, DataSize::bytes(1));
  EXPECT_FALSE(g.is_dag());
  EXPECT_THROW((void)g.topological_order(), ConfigError);
}

TEST(TaskGraph, SourcesAndSinks) {
  const auto g = diamond();
  EXPECT_EQ(g.sources(), std::vector<ComponentId>{0});
  EXPECT_EQ(g.sinks(), std::vector<ComponentId>{3});
}

TEST(TaskGraph, WorkScalingPreservesStructure) {
  const auto g = diamond();
  const auto scaled = g.with_work_scaled(2.0);
  EXPECT_EQ(scaled.component_count(), g.component_count());
  EXPECT_EQ(scaled.flow_count(), g.flow_count());
  EXPECT_EQ(scaled.total_work(), Cycles::mega(200));
  EXPECT_EQ(scaled.total_flow_bytes(), g.total_flow_bytes());
  EXPECT_EQ(scaled.component(0).pinned_local, true);
  EXPECT_THROW((void)g.with_work_scaled(0.0), ContractViolation);
}

/// Kahn's algorithm run from scratch, as TaskGraph computed it per call
/// before its order was kept by the mutators. Empty on a cycle.
std::vector<ComponentId> fresh_kahn(const TaskGraph& g) {
  std::vector<std::size_t> indegree(g.component_count(), 0);
  for (const auto& f : g.flows()) ++indegree[f.to];
  std::deque<ComponentId> ready;
  for (ComponentId v = 0; v < g.component_count(); ++v)
    if (indegree[v] == 0) ready.push_back(v);
  std::vector<ComponentId> order;
  while (!ready.empty()) {
    const ComponentId v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (const std::size_t fi : g.out_flows(v))
      if (--indegree[g.flow(fi).to] == 0) ready.push_back(g.flow(fi).to);
  }
  if (order.size() != g.component_count()) order.clear();
  return order;
}

/// Every invariant the graph keeps equals its from-scratch value.
void expect_invariants_fresh(const TaskGraph& g) {
  SCOPED_TRACE(g.name());
  ASSERT_TRUE(g.is_dag());
  EXPECT_EQ(g.topological_order(), fresh_kahn(g));
  Cycles work;
  for (const auto& c : g.components()) work += c.work;
  EXPECT_EQ(g.total_work(), work);
  DataSize bytes;
  for (const auto& f : g.flows()) bytes += f.bytes;
  EXPECT_EQ(g.total_flow_bytes(), bytes);
  DataSize image;
  std::size_t offloadable = 0;
  for (const auto& c : g.components()) {
    if (c.pinned_local) continue;
    image += c.image;
    ++offloadable;
  }
  EXPECT_EQ(g.pinned_count(), g.component_count() - offloadable);
  EXPECT_EQ(g.mean_offloadable_image(),
            offloadable == 0 ? DataSize::zero()
                             : DataSize::bytes(image.count_bytes() /
                                               offloadable));
}

TEST(TaskGraphInvariants, MatchFreshValuesOnEveryGraphFamily) {
  std::vector<TaskGraph> graphs = workloads::all();
  GeneratorParams p;
  p.components = 12;
  graphs.push_back(linear_pipeline(p, Rng(3)));
  graphs.push_back(fan_out_fan_in(6, p, Rng(4)));
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    graphs.push_back(layered_random(2 + seed % 4, p, Rng(seed)));
  graphs.push_back(diamond());
  const std::size_t originals = graphs.size();
  for (std::size_t i = 0; i < originals; ++i)
    graphs.push_back(graphs[i].with_work_scaled(1.5));
  for (const auto& g : graphs) expect_invariants_fresh(g);
}

TEST(TaskGraphInvariants, GrowingAfterAQueryUpdatesThem) {
  TaskGraph g = diamond();
  ASSERT_EQ(g.topological_order(), (std::vector<ComponentId>{0, 1, 2, 3}));
  // A new source slots in after the existing ones; a flow into b delays b
  // behind c in Kahn's FIFO.
  const auto e = g.add_component({"e", Cycles::mega(5), DataSize::megabytes(64),
                                  DataSize::megabytes(9), false});
  EXPECT_EQ(g.topological_order(), (std::vector<ComponentId>{0, 4, 1, 2, 3}));
  g.add_flow(e, 1, DataSize::kilobytes(10));
  EXPECT_EQ(g.topological_order(), (std::vector<ComponentId>{0, 4, 2, 1, 3}));
  expect_invariants_fresh(g);
  EXPECT_EQ(g.total_work(), Cycles::mega(105));
  EXPECT_EQ(g.total_flow_bytes(), DataSize::kilobytes(1010));
  EXPECT_EQ(g.mean_offloadable_image(), DataSize::bytes(19'000'000 / 3));
}

TEST(TaskGraphInvariants, CycleClosedAfterAQueryIsDetected) {
  TaskGraph g = diamond();
  ASSERT_TRUE(g.is_dag());
  ASSERT_EQ(g.topological_order().size(), 4u);
  g.add_flow(3, 0, DataSize::bytes(1));
  EXPECT_FALSE(g.is_dag());
  EXPECT_THROW((void)g.topological_order(), ConfigError);
}

TEST(TaskGraphInvariants, BatchOfFlowsMatchesFlowByFlow) {
  TaskGraph one = diamond();
  TaskGraph batch = diamond();
  const std::vector<DataFlow> extra = {{0, 3, DataSize::kilobytes(7)},
                                       {1, 2, DataSize::kilobytes(9)}};
  for (const auto& f : extra) one.add_flow(f.from, f.to, f.bytes);
  batch.add_flows(extra);
  EXPECT_EQ(batch.flows().size(), one.flows().size());
  for (ComponentId v = 0; v < one.component_count(); ++v)
    EXPECT_EQ(batch.out_flows(v), one.out_flows(v));
  EXPECT_EQ(batch.topological_order(), one.topological_order());
  expect_invariants_fresh(batch);

  // A bad flow anywhere in the batch rejects the whole batch.
  const std::vector<DataFlow> bad = {{0, 1, DataSize::bytes(1)},
                                     {2, 2, DataSize::bytes(1)}};
  EXPECT_THROW(batch.add_flows(bad), ContractViolation);
  EXPECT_EQ(batch.flow_count(), one.flow_count());
  expect_invariants_fresh(batch);
}

TEST(TaskGraphInvariants, AllPinnedGraphHasNoOffloadableImage) {
  TaskGraph g("pinned");
  (void)g.add_component({"a", Cycles::mega(1), {}, DataSize::megabytes(5),
                         true});
  EXPECT_EQ(g.pinned_count(), 1u);
  EXPECT_EQ(g.mean_offloadable_image(), DataSize::zero());
}

TEST(Generators, PipelineShape) {
  GeneratorParams p;
  p.components = 6;
  const auto g = linear_pipeline(p, Rng(1));
  EXPECT_EQ(g.component_count(), 6u);
  EXPECT_EQ(g.flow_count(), 5u);
  EXPECT_TRUE(g.component(0).pinned_local);
  EXPECT_TRUE(g.component(5).pinned_local);
  for (ComponentId i = 1; i < 5; ++i)
    EXPECT_FALSE(g.component(i).pinned_local);
  EXPECT_TRUE(g.is_dag());
}

TEST(Generators, FanOutShape) {
  GeneratorParams p;
  const auto g = fan_out_fan_in(8, p, Rng(2));
  EXPECT_EQ(g.component_count(), 10u);  // split + 8 workers + join
  EXPECT_EQ(g.flow_count(), 16u);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  EXPECT_TRUE(g.is_dag());
}

TEST(Generators, DeterministicPerSeed) {
  GeneratorParams p;
  const auto a = layered_random(4, p, Rng(7));
  const auto b = layered_random(4, p, Rng(7));
  ASSERT_EQ(a.component_count(), b.component_count());
  for (ComponentId i = 0; i < a.component_count(); ++i)
    EXPECT_EQ(a.component(i).work, b.component(i).work);
}

class LayeredRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayeredRandomProperty, AlwaysValidDag) {
  GeneratorParams p;
  p.components = 24;
  const auto g = layered_random(5, p, Rng(GetParam()));
  EXPECT_EQ(g.component_count(), 24u);
  EXPECT_TRUE(g.is_dag());
  // Every non-source component is reachable (has >= 1 predecessor).
  const auto srcs = g.sources();
  const std::set<ComponentId> src_set(srcs.begin(), srcs.end());
  for (ComponentId v = 0; v < g.component_count(); ++v) {
    if (!src_set.contains(v)) {
      EXPECT_FALSE(g.in_flows(v).empty());
    }
  }
  // Sources are pinned (data acquisition stays on the UE).
  for (const auto s : srcs) EXPECT_TRUE(g.component(s).pinned_local);
  // No degenerate demands.
  for (const auto& c : g.components()) EXPECT_GT(c.work, Cycles::zero());
  for (const auto& f : g.flows()) EXPECT_GT(f.bytes, DataSize::zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayeredRandomProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(Workloads, AllAreValid) {
  for (const auto& g : workloads::all()) {
    EXPECT_TRUE(g.is_dag()) << g.name();
    EXPECT_GE(g.pinned_count(), 1u) << g.name();
    EXPECT_LT(g.pinned_count(), g.component_count()) << g.name();
    EXPECT_EQ(g.sources().size(), 1u) << g.name();
    EXPECT_GT(g.total_work(), Cycles::zero()) << g.name();
  }
}

TEST(Workloads, SpanTheComputeToCommunicationSpectrum) {
  // ML training is compute-dominated, video transcode transfer-dominated;
  // the other two sit in between. This ordering is what drives the F2
  // experiment's crossover.
  const double ml = workloads::ml_batch_training().compute_to_communication();
  const double etl = workloads::nightly_etl().compute_to_communication();
  const double photo = workloads::photo_backup().compute_to_communication();
  const double video = workloads::video_transcode().compute_to_communication();
  EXPECT_GT(ml, 20.0 * video);
  EXPECT_GT(etl, video);
  EXPECT_GT(photo, video);
  EXPECT_GT(ml, etl);
}

TEST(Workloads, EndpointsArePinned) {
  for (const auto& g : workloads::all()) {
    for (const auto s : g.sources())
      EXPECT_TRUE(g.component(s).pinned_local) << g.name();
    for (const auto s : g.sinks())
      EXPECT_TRUE(g.component(s).pinned_local) << g.name();
  }
}

}  // namespace
}  // namespace ntco::app
