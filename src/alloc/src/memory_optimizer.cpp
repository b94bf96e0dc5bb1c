#include "ntco/alloc/memory_optimizer.hpp"

#include "ntco/common/error.hpp"

namespace ntco::alloc {

std::vector<MemoryPoint> MemoryOptimizer::sweep(Cycles work, DataSize floor,
                                                double parallel_fraction,
                                                DataSize step) const {
  const auto& cfg = platform_.config();
  if (step.is_zero() ||
      step.count_bytes() % cfg.memory_quantum.count_bytes() != 0)
    throw ConfigError("sweep step must be a positive provider-quantum multiple");

  std::vector<MemoryPoint> out;
  const DataSize start = platform_.quantize_memory(floor);
  for (auto bytes = start.count_bytes(); bytes <= cfg.max_memory.count_bytes();
       bytes += step.count_bytes()) {
    const auto mem = DataSize::bytes(bytes);
    const Duration d = platform_.exec_time(mem, work, parallel_fraction);
    // Price at the reference (multiplier-free) tariff; scheduling into a
    // discount window is the scheduler's job, not the allocator's.
    const Money c = platform_.reference_cost(mem, d);
    out.push_back(MemoryPoint{mem, d, c});
  }
  NTCO_ENSURES(!out.empty());
  return out;
}

MemoryChoice MemoryOptimizer::choose(Cycles work, DataSize floor,
                                     double parallel_fraction,
                                     Duration deadline, DataSize step) const {
  const auto curve = sweep(work, floor, parallel_fraction, step);

  const MemoryPoint* best = nullptr;
  const MemoryPoint* fastest = &curve.front();
  for (const auto& p : curve) {
    if (p.duration < fastest->duration) fastest = &p;
    if (p.duration > deadline) continue;
    if (best == nullptr || p.cost < best->cost ||
        (p.cost == best->cost && p.duration < best->duration))
      best = &p;
  }
  if (best == nullptr) return MemoryChoice{*fastest, false};
  return MemoryChoice{*best, true};
}

}  // namespace ntco::alloc
