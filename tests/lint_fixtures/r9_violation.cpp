// R9 fixture: a handler capture that plain-copies allocating types.
#include <string>
#include <vector>

void arm(Sim& sim, TimePoint t) {
  std::string name = "job";
  std::vector<int> work;
  sim.schedule_at(t, [name, work] {  // copies both: two findings
    consume(name, work);
  });
}
