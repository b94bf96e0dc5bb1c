// Micro-benchmark (google-benchmark): throughput and latency of the
// dataplane's lock-free rings and epoch barrier.
//
//   BM_RingSinglePushPop   one release store per op — the unbatched floor
//   BM_RingBatchedPushPop  push_n/pop_n in bursts of 64: one release store
//                          amortised across the burst
//   BM_MpscPushPop         the completion-ring variant (CAS claim + seq)
//   BM_RingPingPong        two-thread round-trip latency over a ring pair
//   BM_EpochBarrier        full engine epochs (dispatch + drain + plan) at
//                          1/2/4/8 workers over a trivial body — the fixed
//                          cost a shard must out-weigh
//
// BM_RingSinglePushPop and BM_RingBatchedPushPop are the loops tools/ci.sh
// gates against the checked-in BENCH_micro_ring.json baseline (>10%
// regression fails). The threaded benches report but are not gated: on a
// shared single-core runner their numbers are scheduler noise.
//
// Own main (micro_main.hpp): when NTCO_BENCH_OUT names a directory every
// result is mirrored into <dir>/BENCH_micro_ring.json (same stable schema
// as BENCH_micro_sim.json, parseable with POSIX awk).

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "micro_main.hpp"
#include "ntco/dataplane/engine.hpp"
#include "ntco/dataplane/ring.hpp"

namespace {

using namespace ntco;

// Single enqueue/dequeue pairs through a quarter-full ring: every op pays
// its own release store.
void BM_RingSinglePushPop(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Ring<std::uint64_t> ring(256);
  for (std::uint64_t i = 0; i < 64; ++i) (void)ring.try_push(i);  // standing
  std::uint64_t out = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(ring.try_push(i));
      benchmark::DoNotOptimize(ring.try_pop(out));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_RingSinglePushPop)->Arg(1024);

// The batched counterpart: same item count, one release store per burst of
// 64 — the gap between this and the single variant is what push_n buys.
void BM_RingBatchedPushPop(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::size_t kBurst = 64;
  Ring<std::uint64_t> ring(256);
  std::uint64_t in[kBurst];
  std::uint64_t out[kBurst];
  for (std::size_t i = 0; i < kBurst; ++i) in[i] = i;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < n; i += kBurst) {
      benchmark::DoNotOptimize(ring.push_n(in, kBurst));
      benchmark::DoNotOptimize(ring.pop_n(out, kBurst));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_RingBatchedPushPop)->Arg(1024);

// Completion-ring variant: the CAS ticket + per-cell sequence handshake,
// measured uncontended so the number is the protocol cost, not contention.
void BM_MpscPushPop(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  MpscRing<std::uint64_t> ring(256);
  std::uint64_t out = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(ring.try_push(i));
      benchmark::DoNotOptimize(ring.try_pop(out));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_MpscPushPop)->Arg(1024);

// Two-thread round trip: a token bounced over a ring pair. items/second is
// round trips; ns_per_item is the full there-and-back latency, the floor
// under any cross-core handoff the dataplane performs.
void BM_RingPingPong(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Ring<std::uint64_t> ping(2);
    Ring<std::uint64_t> pong(2);
    // ntco-lint: allow(R3) ping-pong latency needs a real echo thread
    std::thread echo([&ping, &pong, n] {
      std::uint64_t v = 0;
      for (std::uint64_t i = 0; i < n;) {
        if (!ping.try_pop(v)) {
          // ntco-lint: allow(R3) yield keeps single-core runners moving
          std::this_thread::yield();
          continue;
        }
        while (!pong.try_push(v)) {
          // ntco-lint: allow(R3) yield keeps single-core runners moving
          std::this_thread::yield();
        }
        ++i;
      }
    });
    std::uint64_t v = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      while (!ping.try_push(i)) {
        // ntco-lint: allow(R3) yield keeps single-core runners moving
        std::this_thread::yield();
      }
      while (!pong.try_pop(v)) {
        // ntco-lint: allow(R3) yield keeps single-core runners moving
        std::this_thread::yield();
      }
      benchmark::DoNotOptimize(v);
    }
    echo.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_RingPingPong)->Arg(4096);

void count_shard(void* ctx, std::size_t shard) {
  // Trivial body: the measurement is the barrier, not the work.
  static_cast<std::vector<std::uint32_t>*>(ctx)->at(shard) += 1;
}

// Epoch-barrier overhead: dispatch + drain + controller plan for a run of
// trivial shards, at 1/2/4/8 workers. items/second is shards/second with
// zero-work bodies — the dataplane's fixed cost per shard.
void BM_EpochBarrier(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kShards = 4096;
  dataplane::EngineConfig cfg;
  cfg.workers = workers;
  cfg.epoch_width = 64;
  dataplane::Engine engine(cfg);
  std::vector<std::uint32_t> touched(kShards, 0);
  for (auto _ : state) {
    engine.run(kShards, &count_shard, &touched);
    benchmark::DoNotOptimize(engine.last_run().epochs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kShards) *
                          state.iterations());
  state.counters["epochs_per_run"] =
      static_cast<double>(engine.last_run().epochs);
}
BENCHMARK(BM_EpochBarrier)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return ntco::bench::run_micro(argc, argv, "micro_ring");
}
