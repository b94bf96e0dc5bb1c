// R9 fixture, clean: moves, references, and small scalars copy nothing
// that allocates.
#include <string>
#include <vector>

void arm(Sim& sim, TimePoint t) {
  std::string name = "job";
  std::vector<int> work;
  sim.schedule_at(t, [name = std::move(name), &work] {
    consume(name, work);
  });
}

void arm_small(Sim& sim, Duration d) {
  int a = 1;
  double b = 2.0;
  sim.schedule_after(d, [a, b] { consume(a + b); });
}
