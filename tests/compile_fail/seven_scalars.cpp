// Must not compile: seven 8-byte scalars captured by copy are 56 bytes.
#include <cstdint>

#include "ntco/sim/simulator.hpp"

void arm(ntco::sim::Simulator& sim, ntco::Duration d) {
  std::uint64_t a = 0, b = 0, c = 0, e = 0, f = 0, g = 0, h = 0;
  sim.schedule_after(d, [a, b, c, e, f, g, h] {
    (void)(a + b + c + e + f + g + h);
  });
}
