#include "ntco/app/task_graph.hpp"

#include "ntco/common/error.hpp"

namespace ntco::app {

void TaskGraph::add_flows(std::span<const DataFlow> flows) {
  for (const DataFlow& f : flows) {
    NTCO_EXPECTS(f.from < components_.size());
    NTCO_EXPECTS(f.to < components_.size());
    NTCO_EXPECTS(f.from != f.to);
  }
  for (const DataFlow& f : flows) {
    out_[f.from].push_back(flows_.size());
    in_[f.to].push_back(flows_.size());
    flows_.push_back(f);
    total_flow_bytes_ += f.bytes;
  }
  reorder();
}

void TaskGraph::reorder() {
  std::vector<std::size_t> indegree(components_.size(), 0);
  for (const auto& f : flows_) ++indegree[f.to];

  // order_ doubles as Kahn's FIFO ready queue: entries before `head` are
  // emitted, the rest are ready and waiting.
  order_.clear();
  for (ComponentId v = 0; v < components_.size(); ++v)
    if (indegree[v] == 0) order_.push_back(v);
  for (std::size_t head = 0; head < order_.size(); ++head)
    for (const std::size_t fi : out_[order_[head]]) {
      const ComponentId w = flows_[fi].to;
      if (--indegree[w] == 0) order_.push_back(w);
    }
}

const std::vector<ComponentId>& TaskGraph::topological_order() const {
  if (!is_dag())
    throw ConfigError("TaskGraph '" + name_ + "' contains a cycle");
  return order_;
}

std::vector<ComponentId> TaskGraph::sources() const {
  std::vector<ComponentId> out;
  for (ComponentId v = 0; v < components_.size(); ++v)
    if (in_[v].empty()) out.push_back(v);
  return out;
}

std::vector<ComponentId> TaskGraph::sinks() const {
  std::vector<ComponentId> out;
  for (ComponentId v = 0; v < components_.size(); ++v)
    if (out_[v].empty()) out.push_back(v);
  return out;
}

double TaskGraph::compute_to_communication() const {
  const auto bytes = total_flow_bytes();
  NTCO_EXPECTS(!bytes.is_zero());
  return static_cast<double>(total_work().value()) /
         static_cast<double>(bytes.count_bytes());
}

TaskGraph TaskGraph::with_work_scaled(double factor) const {
  NTCO_EXPECTS(factor > 0.0);
  TaskGraph g(name_);
  for (const auto& c : components_) {
    Component scaled = c;
    scaled.work = c.work * factor;
    (void)g.add_component(std::move(scaled));
  }
  g.add_flows(flows_);
  return g;
}

}  // namespace ntco::app
