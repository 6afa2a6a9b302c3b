#include "src/dag/maintenance.h"

#include <unordered_set>

namespace xvu {

std::vector<NodeId> CollectDescOrSelf(const DagView& dag,
                                      const std::vector<NodeId>& roots) {
  std::unordered_set<NodeId> seen;
  seen.reserve(roots.size() * 4);
  std::vector<NodeId> out, stack(roots.begin(), roots.end());
  out.reserve(roots.size() * 2);
  stack.reserve(roots.size() * 2);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    if (!seen.insert(v).second) continue;
    out.push_back(v);
    for (NodeId c : dag.children(v)) stack.push_back(c);
  }
  return out;
}

bool ConeContainsAny(const DagView& dag, NodeId root,
                     const std::vector<NodeId>& targets) {
  std::vector<NodeId> cone = CollectDescOrSelf(dag, {root});
  std::unordered_set<NodeId> cone_set(cone.begin(), cone.end());
  for (NodeId u : targets) {
    if (cone_set.count(u) > 0) return true;
  }
  return false;
}

Status MaintainBatch(DagView* dag, Reachability* m, TopoOrder* l,
                     MaintenanceDelta* delta) {
  // (1) Garbage collection: a node survives iff it is still reachable from
  // the root. (Equivalent to the cascading no-live-parent criterion of
  // Fig.8 — in a rooted DAG the two fixpoints coincide — but computed in
  // one DFS instead of per-deletion cascades.)
  std::vector<NodeId> reachable =
      dag->root() == kInvalidNode
          ? std::vector<NodeId>{}
          : CollectDescOrSelf(*dag, {dag->root()});
  std::unordered_set<NodeId> live(reachable.begin(), reachable.end());
  std::vector<NodeId> doomed;
  for (NodeId v : dag->LiveNodes()) {
    if (live.count(v) == 0) doomed.push_back(v);
  }
  // Every incoming edge of a doomed node originates at a doomed node (a
  // live parent would make it reachable), so removing all doomed nodes'
  // outgoing edges clears every incident edge.
  for (NodeId v : doomed) {
    std::vector<NodeId> children = dag->children(v);
    for (NodeId c : children) {
      delta->orphan_edges.emplace_back(v, c);
      XVU_RETURN_NOT_OK(dag->RemoveEdge(v, c));
    }
  }
  for (NodeId v : doomed) {
    XVU_RETURN_NOT_OK(dag->RemoveNode(v));
    delta->removed_nodes.push_back(v);
  }

  // (2) One rebuild of L and M amortized over the whole batch.
  XVU_ASSIGN_OR_RETURN(*l, TopoOrder::Compute(*dag));
  *m = Reachability::Compute(*dag, *l);
  return Status::OK();
}

}  // namespace xvu
