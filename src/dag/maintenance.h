#ifndef XVU_DAG_MAINTENANCE_H_
#define XVU_DAG_MAINTENANCE_H_

#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"

namespace xvu {

/// Changes produced by one maintenance pass (Section 3.4's ∆M and ∆'V,
/// consolidated over a journal window).
struct MaintenanceDelta {
  /// Pairs added to the reachability matrix.
  std::vector<std::pair<NodeId, NodeId>> m_inserted;
  /// Pairs removed from the reachability matrix.
  std::vector<std::pair<NodeId, NodeId>> m_deleted;
  /// ∆'V of Fig.8: outgoing edges of garbage-collected nodes, removed from
  /// the DAG and handed to the caller so the corresponding witness rows can
  /// be reclaimed from the relational coding.
  std::vector<std::pair<NodeId, NodeId>> orphan_edges;
  /// Nodes that became unreachable and were tombstoned (their gen_A rows
  /// are reclaimed by the background garbage collector of Section 2.3).
  std::vector<NodeId> removed_nodes;
};

/// Batch-aware full-rebuild maintenance: one pass for a whole UpdateBatch
/// (the deferred, backgroundable phase of Fig.11c, amortized over N ops).
/// This is the kFullRebuild primitive of MaintenanceEngine
/// (maintenance_engine.h), which owns M and L and chooses per batch
/// between this wholesale path and the incremental ∆V-journal merge.
///
/// Precondition: all of the batch's DAG mutations (edge removals, subtree
/// publications, connect edges) are already applied to `dag`; `m` and `l`
/// are the stale pre-batch structures.
///
/// Garbage-collects every node no longer reachable from the root — their
/// removed outgoing edges are reported as `orphan_edges` (∆'V, so the
/// caller can reclaim witness rows) and the nodes as `removed_nodes` —
/// then rebuilds L (Kahn) and M (Algorithm Reach, Fig.4) in one O(n·|V|)
/// pass over the cleaned DAG. `m_inserted`/`m_deleted` are left empty:
/// the rebuild replaces M wholesale instead of emitting per-pair deltas.
Status MaintainBatch(DagView* dag, Reachability* m, TopoOrder* l,
                     MaintenanceDelta* delta);

/// desc-or-self of `roots` by DFS over the current DAG.
std::vector<NodeId> CollectDescOrSelf(const DagView& dag,
                                      const std::vector<NodeId>& roots);

/// True iff some node of `targets` lies in desc-or-self(`root`) of the
/// current DAG, i.e. an edge from it to `root` would close a cycle.
bool ConeContainsAny(const DagView& dag, NodeId root,
                     const std::vector<NodeId>& targets);

}  // namespace xvu

#endif  // XVU_DAG_MAINTENANCE_H_
