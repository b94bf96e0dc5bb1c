#pragma once

#include <memory>
#include <type_traits>
#include <utility>

/// \file boxed.hpp
/// The one opt-out from the event kernel's inline handler budget.
///
/// Simulator::schedule_at/schedule_after reject at compile time any
/// callable that InlineHandler would not store inline. A handler that must
/// stay larger is wrapped in sim::boxed: the callable moves into a single
/// heap allocation and the kernel stores the pointer-sized wrapper inline.
/// The allocation is deliberate, audited debt — every use is found with
/// `grep -rn "boxed("` — and it lives outside the kernel header, which is
/// an allocation-free hot-path file.

namespace ntco::sim {

/// Owns `f` on the heap and returns a pointer-sized handler that invokes
/// it. Destroying the handler (fire or cancel) destroys `f` and its
/// captures.
template <class F>
[[nodiscard]] auto boxed(F&& f) {
  return [p = std::make_unique<std::decay_t<F>>(std::forward<F>(f))] {
    (*p)();
  };
}

}  // namespace ntco::sim
