// Micro-benchmark (google-benchmark): event-loop throughput of the
// simulation kernel. Covers the three hot verbs — schedule, fire, cancel —
// separately and in the mixed schedule-fire-cancel churn that dominates
// timer-heavy simulations (keep-alive expiries, batch flushes, retries).
// BM_ScheduleFireCancel is the loop tools/ci.sh gates against the
// checked-in BENCH_micro_sim.json baseline (>10% regression fails).
//
// Own main (micro_main.hpp): when NTCO_BENCH_OUT names a directory it
// mirrors every result into <dir>/BENCH_micro_sim.json (deterministic field
// order) so the perf trajectory is machine-recorded alongside the
// experiment artifacts.

#include <benchmark/benchmark.h>

#include <vector>

#include "micro_main.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/boxed.hpp"
#include "ntco/sim/simulator.hpp"

namespace {

using namespace ntco;

// Small capture: fits the handler small-buffer, so scheduling never
// allocates for the common [&]-style lambda.
void BM_ScheduleAndRun_Small(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n; ++i)
      sim.schedule_at(TimePoint::at(Duration::micros(
                          static_cast<std::int64_t>(i))),
                      [&acc] { ++acc; });
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScheduleAndRun_Small)->Arg(1024)->Arg(8192);

// Big capture: 64 bytes of payload does not fit the inline buffer, so the
// handler opts out through sim::boxed; this pins the cost of that
// heap-fallback path per event.
void BM_ScheduleAndRun_Big(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  struct Payload {
    std::uint64_t data[8];
  };
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      Payload p{};
      p.data[0] = i;
      sim.schedule_at(TimePoint::at(Duration::micros(
                          static_cast<std::int64_t>(i))),
                      sim::boxed([&acc, p] { acc += p.data[0]; }));
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScheduleAndRun_Big)->Arg(1024)->Arg(8192);

// Same loop with a sink attached: bounds the cost of the tracing hooks
// when observability is actually on (a counting sink, no serialisation).
void BM_ScheduleAndRun_Traced(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    obs::CountingSink sink;
    sim.set_trace_sink(&sink);
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n; ++i)
      sim.schedule_at(TimePoint::at(Duration::micros(
                          static_cast<std::int64_t>(i))),
                      [&acc] { ++acc; });
    sim.run();
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScheduleAndRun_Traced)->Arg(1024)->Arg(8192);

// The gated loop: per event, one schedule; half the population is then
// cancelled before firing and the rest runs to completion — the mix a
// timer-heavy simulation (keep-alives, retries, batch flushes) produces.
// Items processed counts scheduled events, so items/s compares across
// kernels regardless of the cancel ratio.
void BM_ScheduleFireCancel(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<sim::EventId> ids;
  ids.reserve(n);
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t acc = 0;
    ids.clear();
    for (std::uint64_t i = 0; i < n; ++i)
      ids.push_back(sim.schedule_at(
          TimePoint::at(Duration::micros(static_cast<std::int64_t>(i))),
          [&acc] { ++acc; }));
    for (std::uint64_t i = 0; i < n; i += 2) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScheduleFireCancel)->Arg(1024)->Arg(8192);

// Timer churn: a fixed population of pending timeouts, each repeatedly
// cancelled and re-armed (the reset-the-timeout pattern of keep-alive and
// retry timers), then drained. Cancel cost dominates; items counts
// cancel+reschedule pairs.
void BM_CancelReschedule(benchmark::State& state) {
  constexpr std::uint64_t kTimers = 256;
  const auto rounds = static_cast<std::uint64_t>(state.range(0));
  std::vector<sim::EventId> ids(kTimers);
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t acc = 0;
    std::int64_t t = 1'000'000;
    for (std::uint64_t i = 0; i < kTimers; ++i)
      ids[i] = sim.schedule_at(TimePoint::at(Duration::micros(t + static_cast<std::int64_t>(i))),
                               [&acc] { ++acc; });
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t i = r % kTimers;
      sim.cancel(ids[i]);
      ++t;
      ids[i] = sim.schedule_at(
          TimePoint::at(Duration::micros(t + static_cast<std::int64_t>(i))),
          [&acc] { ++acc; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          state.iterations());
}
BENCHMARK(BM_CancelReschedule)->Arg(4096)->Arg(32768);

// Interleaved handler-driven scheduling: every fired event schedules its
// successor (the chain shape ServerPool and the platform keep-alive path
// produce), so schedule and fire alternate instead of batching.
void BM_FireChain(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    struct Chain {
      sim::Simulator& sim;
      std::uint64_t& fired;
      std::uint64_t remaining;
      void operator()() {
        ++fired;
        if (remaining > 0)
          sim.schedule_after(Duration::micros(1),
                             Chain{sim, fired, remaining - 1});
      }
    };
    sim.schedule_after(Duration::micros(1), Chain{sim, fired, n - 1});
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_FireChain)->Arg(8192);

}  // namespace

int main(int argc, char** argv) {
  return ntco::bench::run_micro(argc, argv, "micro_sim");
}
