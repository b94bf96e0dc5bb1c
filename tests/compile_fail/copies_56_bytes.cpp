// Must not compile: plain copies of a std::string and a std::vector make a
// 56-byte closure, over the kernel's 48-byte inline handler buffer.
#include <string>
#include <vector>

#include "ntco/sim/simulator.hpp"

void arm(ntco::sim::Simulator& sim, ntco::TimePoint t) {
  std::string name = "job";
  std::vector<int> work;
  sim.schedule_at(t, [name, work] { (void)(name.size() + work.size()); });
}
