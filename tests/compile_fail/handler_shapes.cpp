// Must compile: the capture shapes the kernel stores inline (moves,
// references, small scalars, this + shared_ptr + id), and an oversized
// handler that opts out explicitly through sim::boxed.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ntco/sim/boxed.hpp"
#include "ntco/sim/simulator.hpp"

struct Owner {
  ntco::sim::Simulator& sim;
  std::uint64_t fired = 0;

  void arm(ntco::TimePoint t) {
    std::string name = "job";
    std::vector<int> work;
    sim.schedule_at(t, [name = std::move(name), &work] {
      (void)(name.size() + work.size());
    });
  }

  void arm_small(ntco::Duration d) {
    int a = 1;
    double b = 2.0;
    sim.schedule_after(d, [a, b] { (void)(a + b); });
  }

  void arm_shared(ntco::Duration d, std::shared_ptr<int> token,
                  std::uint64_t id) {
    sim.schedule_after(d, [this, token = std::move(token), id] {
      fired += id + static_cast<std::uint64_t>(*token);
    });
  }

  void arm_boxed(ntco::Duration d) {
    std::uint64_t a = 0, b = 0, c = 0, e = 0, f = 0, g = 0, h = 0;
    sim.schedule_after(d, ntco::sim::boxed([a, b, c, e, f, g, h] {
                         (void)(a + b + c + e + f + g + h);
                       }));
  }
};
