// Must not compile: moving a std::deque into the handler still stores all
// of its 80 bytes in the closure.
#include <deque>
#include <utility>

#include "ntco/sim/simulator.hpp"

void arm(ntco::sim::Simulator& sim, ntco::TimePoint t) {
  std::deque<int> backlog;
  sim.schedule_at(t, [q = std::move(backlog)] { (void)q.size(); });
}
