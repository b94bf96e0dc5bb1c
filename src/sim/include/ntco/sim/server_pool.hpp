#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"
#include "ntco/sim/simulator.hpp"

/// \file server_pool.hpp
/// FIFO multi-server queueing resource (an M/G/c service station when fed
/// with Poisson arrivals). Used to model fixed-capacity edge sites, build
/// agents in the CI/CD simulator, and anywhere contention for a bounded
/// resource matters.
///
/// Jobs are addressable: `submit` returns a Ticket and `cancel` removes a
/// queued or in-service job, reporting how much service it already
/// consumed. That is the primitive the continuum migration engine uses to
/// checkpoint work off a saturated or failing edge site.

namespace ntco::sim {

/// Fixed pool of identical servers with an unbounded FIFO queue.
class ServerPool {
 public:
  /// `on_done(started_at)` fires when the job finishes service; `started_at`
  /// is when it left the queue, so callers can derive queueing delay.
  using Completion = std::function<void(TimePoint started_at)>;

  /// Handle for a submitted job, usable until its completion fires.
  using Ticket = std::uint64_t;

  /// What `cancel` found. `consumed` is the service time already rendered
  /// (zero for a queued job); `started` is only meaningful when
  /// `was_running`.
  struct CancelInfo {
    bool was_running = false;
    TimePoint started;
    Duration consumed;
  };

  /// Queue/service position of a live job (see `status`).
  struct Status {
    bool running = false;
    TimePoint started;  ///< service start; meaningful when `running`
  };

  ServerPool(Simulator& sim, std::size_t servers)
      : sim_(sim), free_(servers), capacity_(servers) {
    NTCO_EXPECTS(servers > 0);
  }

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  /// Enqueues a job needing `service` time on one server.
  Ticket submit(Duration service, Completion on_done) {
    NTCO_EXPECTS(!service.is_negative());
    NTCO_EXPECTS(on_done != nullptr);
    const Ticket ticket = next_ticket_++;
    queue_.push_back(Job{ticket, service, std::move(on_done)});
    dispatch();
    return ticket;
  }

  /// Removes a queued or running job. The job's completion never fires;
  /// a freed server immediately picks up queued work. Returns nullopt if
  /// the ticket is unknown (already completed or cancelled).
  std::optional<CancelInfo> cancel(Ticket ticket) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->ticket != ticket) continue;
      queue_.erase(it);
      return CancelInfo{};
    }
    const auto it = running_.find(ticket);
    if (it == running_.end()) return std::nullopt;
    const TimePoint started = it->second.started;
    const Duration service = it->second.service;
    sim_.cancel(it->second.completion);
    running_.erase(it);  // destroys the completion and its captures now
    CancelInfo info;
    info.was_running = true;
    info.started = started;
    const Duration elapsed = sim_.now() - started;
    info.consumed = elapsed < service ? elapsed : service;
    // busy_time_ was charged for the full service at dispatch; refund the
    // part that will never be rendered.
    busy_time_ -= service - info.consumed;
    ++free_;
    dispatch();
    return info;
  }

  /// Position of a live job: queued (nullopt `running`) or in service.
  [[nodiscard]] std::optional<Status> status(Ticket ticket) const {
    for (const auto& job : queue_)
      if (job.ticket == ticket) return Status{};
    const auto it = running_.find(ticket);
    if (it == running_.end()) return std::nullopt;
    return Status{true, it->second.started};
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t busy() const { return capacity_ - free_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

  /// Accumulated busy server-time (for utilisation accounting).
  [[nodiscard]] Duration total_busy_time() const { return busy_time_; }

  /// Jobs fully served so far.
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

 private:
  struct Job {
    Ticket ticket = 0;
    Duration service;
    Completion on_done;
  };

  /// An in-service job. It owns the completion, so the kernel handler
  /// captures only `this` and the ticket.
  struct Running {
    EventId completion = kNoEvent;
    TimePoint started;
    Duration service;
    Completion on_done;
  };

  void dispatch() {
    while (free_ > 0 && !queue_.empty()) {
      Job job = std::move(queue_.front());
      queue_.pop_front();
      --free_;
      const TimePoint started = sim_.now();
      busy_time_ += job.service;
      const Ticket ticket = job.ticket;
      const EventId ev = sim_.schedule_after(job.service, [this, ticket] {
        const auto it = running_.find(ticket);
        const TimePoint began = it->second.started;
        Completion done = std::move(it->second.on_done);
        running_.erase(it);
        ++free_;
        ++completed_;
        done(began);
        dispatch();
      });
      running_.emplace(
          ticket, Running{ev, started, job.service, std::move(job.on_done)});
    }
  }

  Simulator& sim_;
  std::size_t free_;
  std::size_t capacity_;
  std::deque<Job> queue_;
  std::map<Ticket, Running> running_;
  Ticket next_ticket_ = 1;
  Duration busy_time_;
  std::uint64_t completed_ = 0;
};

}  // namespace ntco::sim
