#ifndef XVU_DAG_REACHABILITY_H_
#define XVU_DAG_REACHABILITY_H_

#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/topo_order.h"

namespace xvu {

/// The reachability matrix M of Section 3.1, stored sparsely as the
/// relation M(anc, desc) — only set bits are kept, in both orientations:
/// per node, its ancestors and its descendants as ascending NodeId
/// vectors (4 bytes a pair per orientation), for O(log n) membership and
/// O(|result|) enumeration. Relationships are strict: (v, v) is never
/// stored.
class Reachability {
 public:
  Reachability() = default;

  /// Algorithm Reach (Fig.4): computes M in O(n·|V|) by scanning L
  /// backwards (ancestors first) and propagating ancestor sets to
  /// children via dynamic programming.
  static Reachability Compute(const DagView& dag, const TopoOrder& order);

  /// True iff a is a (strict) ancestor of d.
  bool IsAncestor(NodeId a, NodeId d) const;

  /// Strict ancestors of d / descendants of a, ascending.
  const std::vector<NodeId>& Ancestors(NodeId d) const;
  const std::vector<NodeId>& Descendants(NodeId a) const;

  /// Grows internal storage to cover node ids < cap. Call before bulk
  /// Insert loops that iterate existing lists: growth re-allocates the
  /// per-node arrays, which would invalidate references otherwise.
  void Reserve(size_t cap);

  /// Inserts pair (a, d); returns true if newly added. Appending (an id
  /// above a list's last) is O(1); otherwise O(list length).
  bool Insert(NodeId a, NodeId d);
  /// Erases pair (a, d); returns true if it was present.
  bool Erase(NodeId a, NodeId d);

  /// Number of stored (anc, desc) pairs — the |M| reported in Fig.10(b).
  size_t size() const { return size_; }

  bool operator==(const Reachability& o) const;

 private:
  void EnsureCapacity(NodeId v);

  std::vector<std::vector<NodeId>> anc_;
  std::vector<std::vector<NodeId>> desc_;
  size_t size_ = 0;

  static const std::vector<NodeId> kEmpty;
};

}  // namespace xvu

#endif  // XVU_DAG_REACHABILITY_H_
