// Must not compile: a `[&]` default capture stores one reference per local
// it names; seven locals make a 56-byte closure.
#include "ntco/sim/simulator.hpp"

void arm(ntco::sim::Simulator& sim, ntco::Duration d) {
  int a = 0, b = 0, c = 0, e = 0, f = 0, g = 0, h = 0;
  sim.schedule_after(d, [&] { a = b + c + e + f + g + h; });
}
