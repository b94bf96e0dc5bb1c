#include "ntco/fleet/replicator.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "ntco/common/error.hpp"
#include "ntco/fleet/sweep.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/percentile.hpp"

namespace ntco::fleet {
namespace {

// ---------------------------------------------------------------------------
// Worker-count probe (NTCO_THREADS, else hardware concurrency).

TEST(FleetThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

// ---------------------------------------------------------------------------
// Replicator.

TEST(FleetReplicator, MapReturnsResultsInShardOrder) {
  Replicator rep(1, 4);
  const auto out = rep.map(16, [](ShardContext& ctx) {
    EXPECT_EQ(ctx.shard_count, 16u);
    return ctx.shard;
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t s = 0; s < out.size(); ++s) EXPECT_EQ(out[s], s);
}

TEST(FleetReplicator, ShardRngIsTheDocumentedStream) {
  Replicator rep(123, 2);
  auto firsts = rep.map(8, [](ShardContext& ctx) { return ctx.rng.next_u64(); });
  for (std::size_t s = 0; s < firsts.size(); ++s)
    EXPECT_EQ(firsts[s], Rng::stream(123, s).next_u64());
}

/// One small but genuine replica: a discrete-event simulation whose event
/// times and count come from the shard's rng stream.
double simulate_replica(ShardContext& ctx) {
  sim::Simulator sim;
  stats::PercentileSample lat;
  const int events = static_cast<int>(ctx.rng.uniform_int(50, 150));
  for (int i = 0; i < events; ++i) {
    const auto at = Duration::micros(
        static_cast<std::int64_t>(ctx.rng.uniform(0.0, 1e6)));
    sim.schedule_after(at, [&lat, &sim] {
      lat.add(sim.now().since_origin().to_seconds());
    });
  }
  sim.run();
  return lat.p95() + lat.median() + static_cast<double>(lat.count());
}

TEST(FleetDeterminism, MergedResultsAreThreadCountInvariant) {
  // The fleet's core guarantee: identical merged output at any worker
  // count. Run the same 12-shard fleet on 1, 2, and 8 workers and require
  // exact (bit-for-bit) equality of every per-shard result.
  const auto run = [](std::size_t threads) {
    Replicator rep(777, threads);
    return rep.map(12, simulate_replica);
  };
  const auto on1 = run(1);
  const auto on2 = run(2);
  const auto on8 = run(8);
  ASSERT_EQ(on1.size(), on2.size());
  ASSERT_EQ(on1.size(), on8.size());
  for (std::size_t s = 0; s < on1.size(); ++s) {
    EXPECT_EQ(on1[s], on2[s]) << "shard " << s;
    EXPECT_EQ(on1[s], on8[s]) << "shard " << s;
  }
}

TEST(FleetDeterminism, MergedRegistryDumpIsThreadCountInvariant) {
  // Per-shard MetricsRegistry instances reduced in shard order must dump
  // byte-identical CSV no matter how many workers ran the shards.
  const auto run = [](std::size_t threads) {
    Replicator rep(31, threads);
    return rep.reduce(
        10, obs::MetricsRegistry{},
        [](ShardContext& ctx) {
          obs::MetricsRegistry shard;
          shard.counter("fleet.events").add(ctx.rng.next_u64() % 100);
          shard.summary("fleet.latency").add(ctx.rng.uniform(0.0, 5.0));
          shard.gauge("fleet.last_shard").set(static_cast<double>(ctx.shard));
          shard.histogram("fleet.lat_s", 0.0, 5.0, 10)
              .add(ctx.rng.uniform(0.0, 5.0));
          return shard;
        },
        [](obs::MetricsRegistry& acc, obs::MetricsRegistry&& shard,
           std::size_t) { acc.merge_from(shard); });
  };
  const std::string csv1 = run(1).to_csv();
  const std::string csv8 = run(8).to_csv();
  EXPECT_EQ(csv1, csv8);
  // The gauge proves the fold ran in shard order on both fleets.
  EXPECT_NE(csv1.find("fleet.last_shard,gauge,value,9"), std::string::npos);
}

TEST(FleetReplicator, ReduceFoldsInShardOrder) {
  Replicator rep(5, 8);
  const auto order = rep.reduce(
      24, std::vector<std::size_t>{},
      [](ShardContext& ctx) { return ctx.shard; },
      [](std::vector<std::size_t>& acc, std::size_t shard, std::size_t s) {
        EXPECT_EQ(shard, s);
        acc.push_back(shard);
      });
  ASSERT_EQ(order.size(), 24u);
  for (std::size_t s = 0; s < order.size(); ++s) EXPECT_EQ(order[s], s);
}

TEST(FleetReplicator, FirstExceptionInShardOrderPropagates) {
  Replicator rep(9, 4);
  try {
    (void)rep.map(8, [](ShardContext& ctx) -> int {
      if (ctx.shard == 2 || ctx.shard == 6)
        throw std::runtime_error("shard " + std::to_string(ctx.shard));
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 2");
  }
}

TEST(FleetReplicator, ContractsRejectZeroShards) {
  Replicator rep(1, 1);
  EXPECT_THROW((void)rep.map(0, [](ShardContext&) { return 0; }),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Sweep.

TEST(FleetSweep, ReplicateGroupsByPointInOrder) {
  Sweep sweep(17, 4);
  const std::vector<double> points{0.5, 1.5, 2.5};
  const auto groups =
      sweep.replicate(points, 5, [](const double& p, ReplicaContext& ctx) {
        EXPECT_EQ(ctx.replica_count, 5u);
        return p * 100.0 + static_cast<double>(ctx.replica);
      });
  ASSERT_EQ(groups.size(), 3u);
  for (std::size_t p = 0; p < groups.size(); ++p) {
    ASSERT_EQ(groups[p].size(), 5u);
    for (std::size_t r = 0; r < 5; ++r)
      EXPECT_DOUBLE_EQ(groups[p][r],
                       points[p] * 100.0 + static_cast<double>(r));
  }
}

TEST(FleetSweep, ReplicaRngIsNestedStreamOfPointStream) {
  Sweep sweep(404, 2);
  const std::vector<int> points{10, 20};
  const auto draws =
      sweep.replicate(points, 3, [](const int&, ReplicaContext& ctx) {
        return ctx.rng.next_u64();
      });
  for (std::size_t p = 0; p < 2; ++p)
    for (std::size_t r = 0; r < 3; ++r)
      EXPECT_EQ(draws[p][r], Rng::stream(404, p).stream(r).next_u64());
}

TEST(FleetSweep, MapGivesOneResultPerPoint) {
  Sweep sweep(1, 3);
  const std::vector<int> points{4, 5, 6, 7};
  const auto out = sweep.map(
      points, [](const int& p, ReplicaContext& ctx) {
        EXPECT_EQ(ctx.replica, 0u);
        return p * 2;
      });
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t p = 0; p < out.size(); ++p)
    EXPECT_EQ(out[p], points[p] * 2);
}

TEST(FleetSweep, ReplicateIsThreadCountInvariant) {
  const auto run = [](std::size_t threads) {
    Sweep sweep(2022, threads);
    const std::vector<double> loads{0.2, 0.8};
    return sweep.replicate(loads, 6, [](const double& load, ReplicaContext& ctx) {
      ShardContext sc{ctx.replica, ctx.replica_count, ctx.rng};
      return simulate_replica(sc) * load;
    });
  };
  const auto on1 = run(1);
  const auto on8 = run(8);
  ASSERT_EQ(on1.size(), on8.size());
  for (std::size_t p = 0; p < on1.size(); ++p)
    for (std::size_t r = 0; r < on1[p].size(); ++r)
      EXPECT_EQ(on1[p][r], on8[p][r]) << "point " << p << " replica " << r;
}

}  // namespace
}  // namespace ntco::fleet
