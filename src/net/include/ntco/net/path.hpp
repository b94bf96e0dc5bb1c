#pragma once

#include <memory>
#include <string>

#include "ntco/common/contracts.hpp"
#include "ntco/net/flaky_link.hpp"
#include "ntco/net/link.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/obs/trace.hpp"

/// \file path.hpp
/// Private-link Transport implementation plus the calibrated technology
/// preset table (PathSpec values follow the ballpark figures offloading
/// papers use: 3G per MAUI-era studies, LTE/5G/WiFi per OpenSignal-style
/// averages; the experiments sweep around them anyway).
///
/// NetworkPath models the paper's baseline assumption — every UE owns its
/// link exclusively. For shared capacity (cell uplink, edge LAN, WAN) use
/// fabric::FabricPath behind the same net::Transport interface.

namespace ntco::net {

/// Uplink + downlink pair of private Links. Owns its links. One of the two
/// Transport implementations (the other is fabric::FabricPath).
class NetworkPath final : public Transport {
 public:
  NetworkPath(std::string name, std::unique_ptr<Link> uplink,
              std::unique_ptr<Link> downlink)
      : name_(std::move(name)),
        up_(std::move(uplink)),
        down_(std::move(downlink)) {
    NTCO_EXPECTS(up_ != nullptr);
    NTCO_EXPECTS(down_ != nullptr);
    // Derive the nominal spec from the links so hand-assembled paths
    // (tests, flaky wrappers) still expose true planning figures.
    spec_.name = name_;
    spec_.up = {up_->nominal_rate(), up_->nominal_latency(), 0.0, 0.0};
    spec_.down = {down_->nominal_rate(), down_->nominal_latency(), 0.0, 0.0};
  }

  /// Preset-built path: keeps the full spec (including jitter parameters)
  /// instead of re-deriving nominals from the links.
  NetworkPath(PathSpec spec, std::unique_ptr<Link> uplink,
              std::unique_ptr<Link> downlink)
      : name_(spec.name),
        spec_(std::move(spec)),
        up_(std::move(uplink)),
        down_(std::move(downlink)) {
    NTCO_EXPECTS(up_ != nullptr);
    NTCO_EXPECTS(down_ != nullptr);
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const PathSpec& spec() const override { return spec_; }
  [[nodiscard]] Link& uplink() { return *up_; }
  [[nodiscard]] Link& downlink() { return *down_; }
  [[nodiscard]] const Link& uplink() const { return *up_; }
  [[nodiscard]] const Link& downlink() const { return *down_; }

  /// One-way times: sampled latency + serialisation on the private link.
  /// Zero-size transfers still pay latency (Transport timing contract).
  [[nodiscard]] Duration uplink_time(DataSize size) override {
    return up_->transfer_time(size);
  }
  [[nodiscard]] Duration downlink_time(DataSize size) override {
    return down_->transfer_time(size);
  }

  /// Round-trip time for a request/response of the given payload sizes.
  [[nodiscard]] Duration round_trip_time(DataSize request,
                                         DataSize response) override {
    return up_->transfer_time(request) + down_->transfer_time(response);
  }

  /// One attempt: fails only when the direction's link is a FlakyLink that
  /// draws a failure (burning its timeout); plain links always succeed.
  [[nodiscard]] TransferAttempt attempt(LinkDirection dir,
                                        DataSize size) override {
    return attempt_transfer(dir == LinkDirection::Up ? *up_ : *down_, size);
  }

  /// Attaches tracing to both directions, labelled "<name>/up" and
  /// "<name>/down". Null pointers detach.
  void set_trace(obs::TraceSink* sink, const obs::TraceClock* clock) override {
    up_->set_trace(sink, clock, name_ + "/up");
    down_->set_trace(sink, clock, name_ + "/down");
  }

 private:
  std::string name_;
  PathSpec spec_;
  std::unique_ptr<Link> up_;
  std::unique_ptr<Link> down_;
};

// --- Calibrated preset table -------------------------------------------------
// One source of constants for both private-link and fabric modes: build a
// NetworkPath with make_path()/make_stochastic_path(), or attach the same
// spec to shared segments with fabric::Fabric::attach().

[[nodiscard]] PathSpec spec_3g();
[[nodiscard]] PathSpec spec_4g();
[[nodiscard]] PathSpec spec_5g();
[[nodiscard]] PathSpec spec_wifi();
/// LAN between UE and an on-premise edge site.
[[nodiscard]] PathSpec spec_edge_lan();
/// WAN leg from access network to a cloud region (what the UE pays on top
/// of the access link when offloading to the cloud instead of the edge).
[[nodiscard]] PathSpec spec_cloud_wan();

/// Deterministic private-link path from a spec.
[[nodiscard]] NetworkPath make_path(const PathSpec& spec);

/// Stochastic private-link path from a spec; `rng` supplies all jitter.
[[nodiscard]] NetworkPath make_stochastic_path(const PathSpec& spec, Rng rng);

// --- Legacy single-latency profile view --------------------------------------
// TechProfile predates PathSpec (one latency/jitter figure for both
// directions). It remains as a thin view over the spec table for existing
// call sites (mobility schedules, tests); new code should use PathSpec.

/// Named technology preset, single latency/jitter for both directions.
struct TechProfile {
  std::string name;
  DataRate uplink;
  DataRate downlink;
  Duration one_way_latency;
  double latency_sigma;  ///< log-normal sigma for the stochastic variant
  double rate_cv;        ///< rate coefficient of variation
};

/// PathSpec from a legacy profile (same figures both directions).
[[nodiscard]] PathSpec to_spec(const TechProfile& p);
/// Legacy profile view of a spec (uplink-direction latency/jitter figures).
[[nodiscard]] TechProfile to_profile(const PathSpec& spec);

/// Known profiles (views over spec_3g() ... spec_cloud_wan()).
[[nodiscard]] TechProfile profile_3g();
[[nodiscard]] TechProfile profile_4g();
[[nodiscard]] TechProfile profile_5g();
[[nodiscard]] TechProfile profile_wifi();
[[nodiscard]] TechProfile profile_edge_lan();
[[nodiscard]] TechProfile profile_cloud_wan();

/// Deterministic path from a profile.
[[nodiscard]] NetworkPath make_fixed_path(const TechProfile& p);

/// Stochastic path from a profile; `rng` supplies all jitter.
[[nodiscard]] NetworkPath make_stochastic_path(const TechProfile& p, Rng rng);

}  // namespace ntco::net
