#ifndef XVU_DAG_REACHABILITY_H_
#define XVU_DAG_REACHABILITY_H_

#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/topo_order.h"

namespace xvu {

/// The reachability matrix M of Section 3.1, stored sparsely as the
/// relation M(anc, desc) — only set bits are kept, in both orientations
/// (ancestor sets and descendant sets) for O(1) membership and O(|result|)
/// enumeration. Relationships are strict: (v, v) is never stored.
class Reachability {
 public:
  Reachability() = default;

  /// Algorithm Reach (Fig.4): computes M in O(n·|V|) by scanning L
  /// backwards (ancestors first) and propagating ancestor sets to
  /// children via dynamic programming.
  static Reachability Compute(const DagView& dag, const TopoOrder& order);

  /// Naive O(|V|^2 log |V|)-ish transitive closure via per-node DFS;
  /// test oracle and ablation baseline.
  static Reachability ComputeNaive(const DagView& dag);

  /// True iff a is a (strict) ancestor of d.
  bool IsAncestor(NodeId a, NodeId d) const;

  const std::unordered_set<NodeId>& Ancestors(NodeId d) const;
  const std::unordered_set<NodeId>& Descendants(NodeId a) const;

  /// Grows internal storage to cover node ids < cap. Call before bulk
  /// Insert loops that iterate existing sets: growth re-allocates the
  /// per-node set arrays, which would invalidate references otherwise.
  void Reserve(size_t cap);

  /// Inserts pair (a, d); returns true if newly added.
  bool Insert(NodeId a, NodeId d);
  /// Erases pair (a, d); returns true if it was present.
  bool Erase(NodeId a, NodeId d);

  /// Number of stored (anc, desc) pairs — the |M| reported in Fig.10(b).
  size_t size() const { return size_; }

  bool operator==(const Reachability& o) const;

 private:
  void EnsureCapacity(NodeId v);

  std::vector<std::unordered_set<NodeId>> anc_;
  std::vector<std::unordered_set<NodeId>> desc_;
  size_t size_ = 0;

  static const std::unordered_set<NodeId> kEmpty;
};

}  // namespace xvu

#endif  // XVU_DAG_REACHABILITY_H_
