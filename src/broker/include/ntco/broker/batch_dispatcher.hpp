#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ntco/common/inline_function.hpp"
#include "ntco/common/units.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/simulator.hpp"

/// \file batch_dispatcher.hpp
/// Cross-user batch dispatch: amortising cold starts over a population.
///
/// sched::Policy::Batched aligns one user's jobs; the dispatcher does the
/// same across *users*. A job arrives with its earliest and latest start;
/// the dispatcher rounds the earliest start up to the `interval` grid
/// (never past the latest, never before the earliest) so compatible users
/// meet on the same flush instant. Jobs that target the same group (same
/// workload, hence the same deployed functions) and the same flush instant
/// are collected and released together. A batch that reaches `max_batch`
/// is *sealed* — it stops accepting jobs (later arrivals open a fresh
/// batch under the same key) but still waits for its flush instant, since
/// flushing early would run the jobs outside the price window the instant
/// was aligned to. Within a flushed batch, jobs are split round-robin over
/// `lanes` sequential chains: each lane starts its next job only when the
/// previous one reported completion, so at most `lanes` instances per
/// function ever run concurrently and every job after a lane's first
/// reuses a warm instance instead of paying a cold start. The lane count
/// trades completion latency (fewer lanes = longer chains) against cold
/// starts (more lanes = more first-in-lane colds).
///
/// Lane chaining needs no per-lane state: a released batch keeps its jobs
/// in enqueue order, lane l runs jobs l, l+lanes, l+2*lanes, ..., and a
/// running job carries its `Lane` (batch id, index) so complete() knows
/// its successor. The batch is dropped once its last lane ends.
///
/// Determinism: group state lives in a std::map keyed by (group, flush
/// time), flushes are simulator events, and jobs within a batch keep their
/// enqueue order — so dispatch is a pure function of the request sequence.

namespace ntco::broker {

struct BatchConfig {
  /// Seal a batch once it holds this many jobs (it keeps its flush
  /// instant; later arrivals start a new batch under the same key).
  std::size_t max_batch = 32;
  /// Sequential execution chains per flushed batch.
  std::size_t lanes = 4;
  /// Alignment grid for flush instants (enqueue() rounds each job's
  /// earliest start up to a multiple of this).
  Duration interval = Duration::minutes(10);
};

struct BatchStats {
  std::uint64_t batches = 0;  ///< flushes executed
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t sealed = 0;  ///< batches closed at max_batch before flushing
};

/// Groups compatible jobs and releases each batch as `lanes` sequential
/// chains on the simulator.
class BatchDispatcher {
 public:
  /// A started job's place in its lane: released-batch id and index.
  struct Lane {
    std::uint64_t batch = 0;
    std::size_t job = 0;
  };
  /// One queued job, started with its lane position. It must hand that
  /// position back to complete() exactly once, when it finishes.
  using Job = InlineFunction<void(Lane)>;

  BatchDispatcher(sim::Simulator& sim, BatchConfig cfg);

  BatchDispatcher(const BatchDispatcher&) = delete;
  BatchDispatcher& operator=(const BatchDispatcher&) = delete;

  /// Queues `job` for the first grid instant at or after `earliest`,
  /// clamped to [earliest, latest] and to now, scheduling the flush event
  /// on first use of that (group, instant) batch.
  void enqueue(const std::string& group, TimePoint earliest, TimePoint latest,
               Job job);

  /// Reports that the job started at `lane` finished: starts the lane's
  /// next job, if any, before returning.
  void complete(Lane lane);

  /// Batches currently waiting for their flush instant.
  [[nodiscard]] std::size_t open_batches() const { return pending_.size(); }
  [[nodiscard]] const BatchStats& stats() const { return stats_; }

  /// Attaches observability. `trace` receives "broker.batch_flush";
  /// `metrics` hosts the "broker.batch.*" counters. Either may be null.
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

 private:
  struct Key {
    std::string group;
    std::int64_t at_us = 0;  ///< flush TimePoint, µs since origin

    auto operator<=>(const Key&) const = default;
  };
  struct Pending {
    std::vector<Job> jobs;
    sim::EventId flush_event = sim::kNoEvent;
  };
  /// A batch taken out of pending_ (sealed, or flushed): its jobs run as
  /// lane chains until the last lane ends.
  struct Released {
    std::string group;
    std::vector<Job> jobs;
    std::size_t running = 0;  ///< lane chains not yet ended
  };

  using PendingMap = std::map<Key, Pending>;

  void flush(PendingMap::iterator pos);
  void release(std::uint64_t id, bool sealed);
  void start(Lane lane);

  struct Instruments {
    obs::Counter* batches = nullptr;
    obs::Counter* jobs = nullptr;
    obs::Counter* sealed = nullptr;
  };

  sim::Simulator& sim_;
  BatchConfig cfg_;
  PendingMap pending_;
  std::map<std::uint64_t, Released> released_;
  std::uint64_t next_released_ = 0;
  BatchStats stats_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
};

}  // namespace ntco::broker
