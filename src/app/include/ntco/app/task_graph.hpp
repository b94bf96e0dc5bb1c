#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"

/// \file task_graph.hpp
/// Application model: a DAG of components connected by data flows.
///
/// This is the unit the framework partitions. A *component* is a cohesive
/// piece of code (a method group / module) with a measured computational
/// demand; a *flow* is the serialised state that must cross the boundary if
/// its endpoints land on different sides of the partition. Components can be
/// *pinned* to the device (UI, sensor access, privacy-constrained code),
/// matching the constraint set of MAUI/CloneCloud-style partitioners.

namespace ntco::app {

/// Index of a component within its TaskGraph.
using ComponentId = std::uint32_t;

/// One offloadable unit of the application.
struct Component {
  std::string name;
  Cycles work;             ///< computational demand per execution
  DataSize memory;         ///< peak working set (floors serverless memory)
  DataSize image;          ///< deployment artifact size (affects cold start)
  bool pinned_local = false;  ///< must execute on the UE
  /// Amdahl parallel fraction: share of the work that can use extra vCPUs
  /// when the serverless memory setting buys more than one.
  double parallel_fraction = 0.8;
};

/// Directed data dependency: `bytes` of state move from -> to per execution.
struct DataFlow {
  ComponentId from;
  ComponentId to;
  DataSize bytes;
};

/// Immutable-after-build DAG of components.
///
/// Build with add_component()/add_flow(); structural invariants (valid ids,
/// no self-loops) are checked on insertion. The per-graph invariants every
/// request reads — the Kahn order, acyclicity, total work and flow bytes,
/// the pinned count and the mean offloadable image — are kept by the
/// mutators, so the const accessors are plain reads: a graph shared
/// read-only across threads needs no synchronisation, and executing a
/// request never recomputes (or allocates) them.
class TaskGraph {
 public:
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  /// Adds a component and returns its id (ids are dense, insertion-ordered).
  ComponentId add_component(Component c) {
    NTCO_EXPECTS(!c.name.empty());
    total_work_ += c.work;
    if (c.pinned_local)
      ++pinned_count_;
    else
      offloadable_image_ += c.image;
    components_.push_back(std::move(c));
    out_.emplace_back();
    in_.emplace_back();
    reorder();
    return static_cast<ComponentId>(components_.size() - 1);
  }

  /// Adds a data flow. Pre: both endpoints exist, no self-loop.
  void add_flow(ComponentId from, ComponentId to, DataSize bytes) {
    const DataFlow f{from, to, bytes};
    add_flows({&f, 1});
  }

  /// Adds `flows` in order, as one add_flow() call each would, but
  /// recomputes the order once: added one by one, E flows cost
  /// O(E·(V+E)). Pre as add_flow(), checked for every flow before any
  /// is added.
  void add_flows(std::span<const DataFlow> flows);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  [[nodiscard]] const Component& component(ComponentId id) const {
    NTCO_EXPECTS(id < components_.size());
    return components_[id];
  }
  [[nodiscard]] const std::vector<Component>& components() const {
    return components_;
  }
  [[nodiscard]] const DataFlow& flow(std::size_t idx) const {
    NTCO_EXPECTS(idx < flows_.size());
    return flows_[idx];
  }
  [[nodiscard]] const std::vector<DataFlow>& flows() const { return flows_; }

  /// Indices into flows() leaving / entering a component.
  [[nodiscard]] const std::vector<std::size_t>& out_flows(
      ComponentId id) const {
    NTCO_EXPECTS(id < components_.size());
    return out_[id];
  }
  [[nodiscard]] const std::vector<std::size_t>& in_flows(
      ComponentId id) const {
    NTCO_EXPECTS(id < components_.size());
    return in_[id];
  }

  /// Kahn topological order (FIFO over ready components, ids ascending
  /// among the initial sources). Throws ConfigError if the graph has a
  /// cycle.
  [[nodiscard]] const std::vector<ComponentId>& topological_order() const;

  /// True if the flow structure is acyclic.
  [[nodiscard]] bool is_dag() const {
    return order_.size() == components_.size();
  }

  /// Components with no incoming / outgoing flows.
  [[nodiscard]] std::vector<ComponentId> sources() const;
  [[nodiscard]] std::vector<ComponentId> sinks() const;

  /// Sum of all component demands.
  [[nodiscard]] Cycles total_work() const { return total_work_; }
  /// Sum of all flow payloads.
  [[nodiscard]] DataSize total_flow_bytes() const {
    return total_flow_bytes_;
  }
  /// Mean deployment image of the components not pinned to the device,
  /// rounded down to whole bytes; zero when every component is pinned.
  [[nodiscard]] DataSize mean_offloadable_image() const {
    const std::size_t offloadable = components_.size() - pinned_count_;
    return offloadable == 0 ? DataSize::zero()
                            : DataSize::bytes(offloadable_image_.count_bytes() /
                                              offloadable);
  }
  /// Number of pinned components.
  [[nodiscard]] std::size_t pinned_count() const { return pinned_count_; }

  /// Compute-to-communication ratio: cycles of work per byte of flow.
  /// Pre: total_flow_bytes() > 0.
  [[nodiscard]] double compute_to_communication() const;

  /// Returns a copy with every component's work scaled by `factor`
  /// (used to sweep the compute-to-communication ratio in experiments).
  [[nodiscard]] TaskGraph with_work_scaled(double factor) const;

 private:
  /// Recomputes order_ (Kahn's algorithm) after a mutation. A cyclic graph
  /// leaves order_ short of component_count(), which is what is_dag() reads.
  void reorder();

  std::string name_;
  std::vector<Component> components_;
  std::vector<DataFlow> flows_;
  std::vector<std::vector<std::size_t>> out_;
  std::vector<std::vector<std::size_t>> in_;
  std::vector<ComponentId> order_;
  Cycles total_work_;
  DataSize total_flow_bytes_;
  DataSize offloadable_image_;  ///< summed over non-pinned components
  std::size_t pinned_count_ = 0;
};

}  // namespace ntco::app
