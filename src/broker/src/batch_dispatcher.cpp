#include "ntco/broker/batch_dispatcher.hpp"

#include <algorithm>
#include <utility>

#include "ntco/common/contracts.hpp"

namespace ntco::broker {

BatchDispatcher::BatchDispatcher(sim::Simulator& sim, BatchConfig cfg)
    : sim_(sim), cfg_(cfg) {
  NTCO_EXPECTS(cfg_.max_batch > 0);
  NTCO_EXPECTS(cfg_.lanes > 0);
  NTCO_EXPECTS(cfg_.interval > Duration::zero());
}

void BatchDispatcher::attach_observer(obs::TraceSink* trace,
                                      obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.batches = &metrics->counter("broker.batch.batches");
    m_.jobs = &metrics->counter("broker.batch.jobs");
    m_.sealed = &metrics->counter("broker.batch.sealed");
  }
}

void BatchDispatcher::enqueue(const std::string& group, TimePoint earliest,
                              TimePoint latest, Job job) {
  NTCO_EXPECTS(job != nullptr);
  // Round up to the grid so compatible users flush together, but never
  // past the latest deadline-safe start.
  const std::int64_t grid = cfg_.interval.count_micros();
  const std::int64_t s = earliest.since_origin().count_micros();
  const TimePoint aligned =
      TimePoint::at(Duration::micros((s + grid - 1) / grid * grid));
  const TimePoint at =
      std::max(std::max(std::min(aligned, latest), earliest), sim_.now());
  auto [it, inserted] =
      pending_.try_emplace(Key{group, at.since_origin().count_micros()});
  Pending& batch = it->second;
  // std::map nodes are stable, so the flush handler holds the node's
  // iterator rather than a copy of the group string.
  if (inserted)
    batch.flush_event = sim_.schedule_at(at, [this, pos = it] { flush(pos); });
  batch.jobs.push_back(std::move(job));
  if (batch.jobs.size() >= cfg_.max_batch) {
    // Seal: the batch stops growing but still flushes at its aligned
    // instant — dispatching now would leave the price window the instant
    // was chosen for. Later arrivals re-open the key with a fresh event.
    sim_.cancel(batch.flush_event);
    const std::uint64_t id = next_released_++;
    released_.try_emplace(id, group, std::move(batch.jobs));
    pending_.erase(it);
    sim_.schedule_at(at, [this, id] { release(id, /*sealed=*/true); });
  }
}

void BatchDispatcher::flush(PendingMap::iterator pos) {
  auto node = pending_.extract(pos);
  const std::uint64_t id = next_released_++;
  released_.try_emplace(id, std::move(node.key().group),
                        std::move(node.mapped().jobs));
  release(id, /*sealed=*/false);
}

void BatchDispatcher::release(std::uint64_t id, bool sealed) {
  Released& b = released_.at(id);
  const std::size_t n = b.jobs.size();
  ++stats_.batches;
  stats_.jobs_dispatched += n;
  if (sealed) ++stats_.sealed;
  if (m_.batches) {
    m_.batches->add();
    m_.jobs->add(n);
    if (sealed) m_.sealed->add();
  }
  if (trace_)
    obs::emit(trace_, sim_.now(), "broker.batch_flush",
              {{"group", std::string_view(b.group)},
               {"jobs", n},
               {"sealed", sealed}});

  // Round-robin the batch over `lanes` sequential chains: lane l runs jobs
  // l, l+lanes, l+2*lanes, ... back to back, so every job after the first
  // in its lane finds the warm instances its predecessor just released.
  const std::size_t lanes = std::min(cfg_.lanes, n);
  b.running = lanes;
  for (std::size_t l = 0; l < lanes; ++l) start({id, l});
}

void BatchDispatcher::start(Lane lane) {
  // Move the job out first: it may complete (and chain) before returning.
  Job job = std::move(released_.at(lane.batch).jobs[lane.job]);
  job(lane);
}

void BatchDispatcher::complete(Lane lane) {
  const auto it = released_.find(lane.batch);
  NTCO_EXPECTS(it != released_.end());
  Released& b = it->second;
  const std::size_t next = lane.job + std::min(cfg_.lanes, b.jobs.size());
  if (next < b.jobs.size())
    start({lane.batch, next});
  else if (--b.running == 0)
    released_.erase(it);
}

}  // namespace ntco::broker
