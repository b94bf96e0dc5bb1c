#pragma once

#include <cstdint>
#include <string>

#include "ntco/common/units.hpp"
#include "ntco/obs/trace.hpp"

/// \file transport.hpp
/// The network layer's public serving surface: `Transport`, the interface
/// every consumer of a UE<->remote path programs against, and `PathSpec`,
/// the POD description of a calibrated technology preset.
///
/// Until this interface existed, consumers (core::OffloadController, the
/// benches) coupled directly to net::NetworkPath and its two owned Links —
/// which made the private-link assumption structural: there was no way to
/// model a *shared* cell uplink, edge LAN, or WAN without rewriting every
/// call site. Transport breaks that coupling:
///
///   - net::NetworkPath      private links, one UE's exclusive capacity
///   - fabric::FabricPath    flows on shared segments, contention-aware
///
/// Both honour the same timing contract (see `uplink_time`), so a
/// controller, platform, or bench written against `Transport&` runs
/// unmodified over either (see DESIGN.md, "Shared-fabric network model").

namespace ntco::net {

/// Transfer direction through a bidirectional transport.
enum class LinkDirection : std::uint8_t { Up, Down };

/// Result of one transfer attempt on a possibly unreliable transport.
/// (Moved here from flaky_link.hpp so the attempt API is part of the
/// Transport surface; flaky_link.hpp re-exports it.)
struct TransferAttempt {
  bool ok = true;
  Duration elapsed;  ///< transfer time, or the timeout burned on failure
};

/// Nominal figures of one transfer direction: the calibrated constants a
/// planner reasons about and the stochastic/fabric models perturb.
struct DirectionSpec {
  DataRate rate;          ///< nominal achievable throughput
  Duration latency;       ///< one-way propagation latency
  double latency_sigma = 0.0;  ///< log-normal sigma of the jitter model
  double rate_cv = 0.0;        ///< rate coefficient of variation
};

/// POD technology preset: per-direction nominal rate/latency/jitter,
/// separated from construction so the private-link factories
/// (make_path/make_stochastic_path) and the shared-fabric attach point
/// (fabric::Fabric::attach) consume one calibrated table instead of
/// duplicating constants. Known presets: spec_3g() ... spec_cloud_wan().
struct PathSpec {
  std::string name;
  DirectionSpec up;
  DirectionSpec down;
};

/// Bidirectional UE<->remote transport.
///
/// Timing contract (golden-tested in net_test/fabric_test):
///   - `uplink_time(s)` / `downlink_time(s)` return one-way latency plus
///     serialisation of `s` at the achieved rate, and are *stateful*: they
///     commit the transfer (consume jitter randomness, occupy shared
///     capacity), so call them once per modelled transfer.
///   - Zero-size transfers still pay the full one-way latency — the
///     request header has to travel. Both implementations agree:
///     `uplink_time(DataSize::zero())` equals the path's one-way uplink
///     latency exactly (Link::transfer_time pins the same semantics).
///   - No queuing is modelled at zero size beyond that latency: a
///     NetworkPath is private (never queues), and a fabric flow of zero
///     bytes drains instantly regardless of contention.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Stable display name (trace labels, tables).
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Nominal figures for planning (partition::Environment construction).
  /// For a fabric path these are the access leg's nominal figures; shared
  /// contention shows up in the sampled times, not the spec.
  [[nodiscard]] virtual const PathSpec& spec() const = 0;

  /// Time to move `size` bytes UE -> remote. See the timing contract.
  [[nodiscard]] virtual Duration uplink_time(DataSize size) = 0;

  /// Time to move `size` bytes remote -> UE. See the timing contract.
  [[nodiscard]] virtual Duration downlink_time(DataSize size) = 0;

  /// Round-trip time for a request/response of the given payload sizes.
  [[nodiscard]] virtual Duration round_trip_time(DataSize request,
                                                 DataSize response) {
    return uplink_time(request) + downlink_time(response);
  }

  /// One transfer attempt in `dir`: implementations with failure
  /// injection (NetworkPath over FlakyLink) may report `ok == false`
  /// after burning the failure timeout; the default always succeeds.
  [[nodiscard]] virtual TransferAttempt attempt(LinkDirection dir,
                                                DataSize size) {
    return TransferAttempt{
        true, dir == LinkDirection::Up ? uplink_time(size)
                                       : downlink_time(size)};
  }

  /// Attaches tracing for this transport's transfer records; null pointers
  /// detach. NetworkPath labels its links "<name>/up"/"<name>/down";
  /// FabricPath forwards to its fabric's flow tracer.
  virtual void set_trace(obs::TraceSink* sink,
                         const obs::TraceClock* clock) = 0;
};

}  // namespace ntco::net
