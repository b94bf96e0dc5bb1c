// Must not compile: a copy of a const std::string is a const member, so the
// 32-byte closure's move copies the string and may throw. Small enough,
// yet the kernel could only store it through the heap.
#include <string>

#include "ntco/sim/simulator.hpp"

void arm(ntco::sim::Simulator& sim, ntco::TimePoint t) {
  const std::string group = "batch-group";
  sim.schedule_at(t, [group] { (void)group.size(); });
}
