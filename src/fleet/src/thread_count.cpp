#include <cstdlib>
#include <thread>

#include "ntco/fleet/replicator.hpp"

namespace ntco::fleet {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("NTCO_THREADS");
      env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace ntco::fleet
