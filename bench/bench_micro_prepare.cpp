// Micro-benchmark (google-benchmark): host cost of
// core::OffloadController::prepare, split by layer, for every graph in
// app::workloads::all() and A1's 128- and 512-component random DAGs (A1b's
// generator and seeds), planned over Wi-Fi (as the repo benchmark's
// diurnal and replan workloads are) with the non-time-critical
// objective.
//
//   BM_PrepareSolve/<graph>   cost model + min-cut solve, as prepare runs it
//   BM_MemoryFirst/<graph>    the memory choice of a first prepare(): a
//                             fresh controller sizes every remote component
//                             (one MemoryOptimizer::choose sweep each)
//   BM_MemoryMemo/<graph>     the same sizing on a warm controller: one memo
//                             lookup per remote component
//   BM_Prepare/<graph>        a whole prepare() with the memory memo and the
//                             deployment memo hit — what every plan-cache
//                             miss on a known app pays
//   BM_Execute/<graph>        one sequential execute() of that plan on the
//                             warm controller and platform (paper workloads
//                             only): the run record, every event handler,
//                             the serverless invocation lifecycle and the
//                             kernel, driven to the run's completion
//
// One item is one prepare's (or execute's) worth of work, so ns/item reads
// as ns per call. BM_Prepare/ml-batch-training and BM_Prepare/a1-dag-128
// are the loops tools/ci.sh gates against the checked-in
// BENCH_micro_prepare.json baseline (>10% regression fails); BM_Execute is
// recorded there but not gated.
//
// Own main (micro_main.hpp): when NTCO_BENCH_OUT names a directory every
// result is mirrored into <dir>/BENCH_micro_prepare.json.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "micro_main.hpp"
#include "ntco/partition/partitioners.hpp"

namespace {

using namespace ntco;

struct Case {
  std::string name;
  app::TaskGraph graph;
  bool paper = false;  ///< one of app::workloads::all()
};

std::vector<Case> make_cases() {
  std::vector<Case> out;
  for (auto& g : app::workloads::all()) {
    std::string name = g.name();
    out.push_back(Case{std::move(name), std::move(g), true});
  }
  for (const std::size_t n : {128u, 512u}) {
    Rng rng(900 + n);  // A1b's seed for this size
    out.push_back(
        Case{"a1-dag-" + std::to_string(n), bench::a1_random_graph(n, rng)});
  }
  return out;
}

/// A warm world for one graph: the graph has been prepared once, so both of
/// the controller's memos hold its plan.
struct Warm {
  bench::World world{bench::ntc_cfg(), net::profile_wifi()};
  partition::MinCutPartitioner mincut;
  partition::Environment env;
  core::DeploymentPlan plan;
  std::vector<const app::Component*> remote;

  explicit Warm(const app::TaskGraph& g)
      : env(world.controller.make_environment(g)),
        plan(world.controller.prepare(g, mincut, env)) {
    for (app::ComponentId id = 0; id < g.component_count(); ++id)
      if (plan.is_remote(id)) remote.push_back(&g.component(id));
  }
};

void finish(benchmark::State& state, const app::TaskGraph& g,
            const Warm& w) {
  state.SetItemsProcessed(state.iterations());
  state.counters["components"] = static_cast<double>(g.component_count());
  state.counters["remote"] = static_cast<double>(w.remote.size());
}

void BM_PrepareSolve(benchmark::State& state, const app::TaskGraph* g) {
  const Warm w(*g);
  const auto objective = w.world.controller.config().objective;
  for (auto _ : state) {
    const partition::CostModel model(*g, w.env, objective);
    benchmark::DoNotOptimize(w.mincut.plan(model));
  }
  finish(state, *g, w);
}

void BM_MemoryFirst(benchmark::State& state, const app::TaskGraph* g) {
  Warm w(*g);
  bench::World& world = w.world;
  const core::ControllerConfig cfg = world.controller.config();
  for (auto _ : state) {
    core::OffloadController fresh(world.sim, world.cloud, world.ue,
                                  world.path, cfg);
    for (const app::Component* c : w.remote)
      benchmark::DoNotOptimize(fresh.function_memory(*c, w.env.remote_speed));
  }
  finish(state, *g, w);
}

void BM_MemoryMemo(benchmark::State& state, const app::TaskGraph* g) {
  Warm w(*g);
  for (auto _ : state)
    for (const app::Component* c : w.remote)
      benchmark::DoNotOptimize(
          w.world.controller.function_memory(*c, w.env.remote_speed));
  finish(state, *g, w);
}

void BM_Prepare(benchmark::State& state, const app::TaskGraph* g) {
  Warm w(*g);
  for (auto _ : state)
    benchmark::DoNotOptimize(w.world.controller.prepare(*g, w.mincut, w.env));
  finish(state, *g, w);
}

void BM_Execute(benchmark::State& state, const app::TaskGraph* g) {
  Warm w(*g);
  for (auto _ : state)
    benchmark::DoNotOptimize(w.world.controller.execute(w.plan, *g));
  finish(state, *g, w);
}

}  // namespace

int main(int argc, char** argv) {
  static const std::vector<Case> cases = make_cases();
  for (const auto& [fn, label] :
       {std::pair{&BM_PrepareSolve, "BM_PrepareSolve/"},
        std::pair{&BM_MemoryFirst, "BM_MemoryFirst/"},
        std::pair{&BM_MemoryMemo, "BM_MemoryMemo/"},
        std::pair{&BM_Prepare, "BM_Prepare/"}})
    for (const Case& c : cases)
      benchmark::RegisterBenchmark((label + c.name).c_str(), fn, &c.graph);
  for (const Case& c : cases)
    if (c.paper)
      benchmark::RegisterBenchmark(("BM_Execute/" + c.name).c_str(),
                                   &BM_Execute, &c.graph);
  return ntco::bench::run_micro(argc, argv, "micro_prepare");
}
