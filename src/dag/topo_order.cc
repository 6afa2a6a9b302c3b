#include "src/dag/topo_order.h"

#include <cstdint>

namespace xvu {

Result<TopoOrder> TopoOrder::Compute(const DagView& dag) {
  TopoOrder t;
  const size_t cap = dag.capacity();
  std::vector<uint32_t> outdeg(cap, 0);
  t.order_.reserve(dag.num_nodes());
  // Kahn over reversed edges: emit a node once all of its children are
  // emitted, yielding a descendants-first order (u precedes v only if u is
  // not an ancestor of v, as Section 3.1 requires). The output doubles as
  // the FIFO queue: nodes are emitted in the order they become ready.
  for (NodeId v = 0; v < cap; ++v) {
    if (!dag.alive(v)) continue;
    outdeg[v] = static_cast<uint32_t>(dag.children(v).size());
    if (outdeg[v] == 0) t.order_.push_back(v);
  }
  for (size_t head = 0; head < t.order_.size(); ++head) {
    for (NodeId p : dag.parents(t.order_[head])) {
      if (--outdeg[p] == 0) t.order_.push_back(p);
    }
  }
  if (t.order_.size() != dag.num_nodes()) {
    return Status::Rejected("DAG contains a cycle; no topological order");
  }
  t.pos_.assign(cap, npos);
  for (size_t i = 0; i < t.order_.size(); ++i) t.pos_[t.order_[i]] = i;
  return t;
}

size_t TopoOrder::PositionOf(NodeId v) const {
  return v < pos_.size() ? pos_[v] : npos;
}

Status TopoOrder::Check(const DagView& dag) const {
  if (order_.size() != dag.num_nodes()) {
    return Status::Internal("topological order size " +
                            std::to_string(order_.size()) +
                            " != live nodes " +
                            std::to_string(dag.num_nodes()));
  }
  Status bad = Status::OK();
  dag.ForEachEdge([&](NodeId p, NodeId c) {
    size_t pp = PositionOf(p), pc = PositionOf(c);
    if (pp == npos || pc == npos || pc >= pp) {
      bad = Status::Internal("edge (" + std::to_string(p) + "," +
                             std::to_string(c) +
                             ") violates the topological order");
    }
  });
  return bad;
}

}  // namespace xvu
