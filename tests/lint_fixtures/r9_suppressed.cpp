// R9 fixture: a copying capture, deliberately kept — one directive must
// absorb both copy findings on the call line.
#include <string>
#include <vector>

void arm(Sim& sim, TimePoint t) {
  std::string name = "job";
  std::vector<int> work;
  // ntco-lint: allow(R9) fixture: handler owns both by design; the heap hop is accepted
  sim.schedule_at(t, [name, work] { consume(name, work); });
}
